"""Time ``partition(k=16)`` on the structures that ``tools/exactness.py`` pins.

One line per structure: its node and edge counts, k, the minimum over
three runs of the seconds ``partition`` takes, and the sha256 prefix of
``cluster_of``. The structures are the two planted mixed-arity graphs of
``tools/exactness.py`` and its random 4-uniform graphs at 5k, 20k and 80k
edges. A speed change runs it against the parent's ``src/`` and its own,
one after the other, and compares the seconds; the hashes must be equal:

    PYTHONPATH=src python tools/partition_timing.py
    PYTHONPATH=/path/to/parent/src python tools/partition_timing.py

The whole run takes about a minute on one core, most of it at 80k edges.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
from exactness import PLANTED_PARTITIONS, planted, uniform_edges

import hyperconv as hc

K = 16
REPEATS = 3
UNIFORM_EDGES = (5000, 20000, 80000)


def structures():
    for n, num_edges, lo, hi, _ in PLANTED_PARTITIONS:
        edges, _ = planted(np.random.default_rng(0), 16, n // 16, num_edges, lo, hi)
        yield edges, n
    for num_edges in UNIFORM_EDGES:
        yield uniform_edges(num_edges), num_edges // 2


def main() -> None:
    for edges, num_nodes in structures():
        h = hc.build_hypergraph(edges, num_nodes=num_nodes)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            c = hc.partition(h, K)
            best = min(best, time.perf_counter() - start)
        digest = hashlib.sha256(c.cluster_of.tobytes()).hexdigest()[:16]
        print(f"nodes={h.num_nodes} edges={h.num_edges} k={K} "
              f"seconds={best:.3f} {digest}", flush=True)


if __name__ == "__main__":
    main()
