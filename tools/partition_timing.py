"""Time ``partition(k=16)`` on the structures that ``tools/exactness.py`` pins.

One line per structure: its node and edge counts, k, the minimum over
three runs of the seconds ``partition`` takes, and the sha256 prefix of
``cluster_of``. The structures are the two planted mixed-arity graphs of
``tools/exactness.py`` and its random 4-uniform graphs at 5k, 20k and 80k
edges:

    PYTHONPATH=src python tools/partition_timing.py

A speed change is compared with its parent in one process:

    PYTHONPATH=src python tools/partition_timing.py --parent /path/to/parent

With ``--parent DIR`` the script loads the ``hyperconv`` package of the
parent checkout's ``src/`` beside this tree's and runs the two in turns,
five times each per structure, the parent first in odd turns and second
in even ones. Its line gives both medians, their ratio (parent over this
tree) and whether the two ``cluster_of`` hashes agree; they must. Two
separate processes on a loaded machine spread more than a small change
moves the time.

A run takes about a minute on one core, most of it at 80k edges; with
``--parent`` a few minutes.
"""

from __future__ import annotations

import blas_pin  # noqa: F401  (pins BLAS before numpy loads)

import argparse
import hashlib
import statistics
import time
from pathlib import Path

import numpy as np
from exactness import PLANTED_PARTITIONS, planted, uniform_edges
from parent_tree import in_turns, load_parent

import hyperconv as hc

K = 16
REPEATS = 3
PAIRS = 5
UNIFORM_EDGES = (5000, 20000, 80000)


def structures():
    for n, num_edges, lo, hi, _ in PLANTED_PARTITIONS:
        edges, _ = planted(np.random.default_rng(0), 16, n // 16, num_edges, lo, hi)
        yield edges, n
    for num_edges in UNIFORM_EDGES:
        yield uniform_edges(num_edges), num_edges // 2


def timed_partition(package, h) -> tuple[float, str]:
    start = time.perf_counter()
    c = package.partition(h, K)
    seconds = time.perf_counter() - start
    return seconds, hashlib.sha256(c.cluster_of.tobytes()).hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, metavar="DIR",
                        help="a checkout of the parent to time against, in turns")
    args = parser.parse_args()
    parent = load_parent(args.parent) if args.parent else None
    for edges, num_nodes in structures():
        h = hc.build_hypergraph(edges, num_nodes=num_nodes)
        head = f"nodes={h.num_nodes} edges={h.num_edges} k={K}"
        if parent is None:
            runs = [timed_partition(hc, h) for _ in range(REPEATS)]
            print(f"{head} seconds={min(s for s, _ in runs):.3f} {runs[0][1]}", flush=True)
            continue
        parent_h = parent.build_hypergraph(edges, num_nodes=num_nodes)
        before, after = in_turns(PAIRS, lambda: timed_partition(parent, parent_h),
                                 lambda: timed_partition(hc, h))
        old = statistics.median(s for s, _ in before)
        new = statistics.median(s for s, _ in after)
        hashes = {digest for _, digest in before + after}
        agree = "hashes agree" if len(hashes) == 1 else "HASHES DIFFER"
        print(f"{head} parent={old:.3f} this={new:.3f} ratio={old / new:.2f} "
              f"{after[0][1]} {agree}", flush=True)


if __name__ == "__main__":
    main()
