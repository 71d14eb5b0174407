"""Time whole training jobs shaped like the benchmark's two training workloads.

One line per job: the minimum and median over the runs of the seconds
``train_prediction`` or ``train_completion`` takes, and the sha256 prefix
of the report minus ``wall_seconds``. The prediction job is a planted
graph of 1,600 nodes and 2,400 edges of arity 3-10, 16 clusters, hidden
width 64, 3 epochs at rate 1e-2; the completion job is 3,200 planted facts
of arity 2-6 on 1,280 entities, 16 relations, 16 clusters, hidden width
64, 4 epochs. The script pins BLAS to one thread before numpy loads:

    PYTHONPATH=src python tools/training_timing.py

A speed change is compared with its parent in one process:

    PYTHONPATH=src python tools/training_timing.py --parent DIR

With ``--parent DIR`` the script loads the ``hyperconv`` package of the
parent checkout's ``src/`` beside this tree's and runs the two in turns,
``--runs`` times each per job, the parent first in odd turns and second
in even ones. Its line gives both minima and medians, the ratio of the
medians (parent over this tree) and whether the report hashes of the two
trees agree. A run takes about half a minute on one core; with
``--parent`` about a minute and a half.
"""

from __future__ import annotations

import blas_pin  # noqa: F401  (pins BLAS before numpy loads)

import argparse
import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np
from exactness import planted
from partition_timing import load_parent

import hyperconv as hc

# (task, nodes, edges, smallest and largest arity, clusters, hidden width,
# epochs, learning rate): the benchmark's full training scales
JOBS = (("prediction", 1600, 2400, 3, 10, 16, 64, 3, 1e-2),
        ("completion", 1280, 3200, 2, 6, 16, 64, 4, 1e-3))
SEED = 1


def job_inputs(package, job):
    """The job's data, config and splits, built with ``package``."""
    task, n, num_edges, lo, hi, k, hidden, epochs, lr = job
    edges, homes = planted(np.random.default_rng(SEED), k, n // k, num_edges, lo, hi)
    h = package.build_hypergraph(edges, num_nodes=n)
    cfg = package.TrainConfig(task=task, clusters=k, hidden_dim=hidden, epochs=epochs,
                              patience=epochs, learning_rate=lr, seed=SEED)
    splits = package.Splits.from_ratios(h.num_edges, cfg.split_ratios, SEED)
    if task == "completion":
        # build_hypergraph drops repeated member sets, so each kept edge
        # takes its relation from its members
        home = {tuple(e): c for e, c in zip(edges, homes)}
        labels = [home[tuple(int(v) for v in m)] for m in h.edge_members]
        h = package.KnowledgeHypergraph(h, labels, tuple(f"r{c}" for c in range(k)),
                                        tuple(f"e{v}" for v in range(n)))
    return h, cfg, splits


def timed_job(package, inputs) -> tuple[float, str]:
    h, cfg, splits = inputs
    train = package.train_prediction if cfg.task == "prediction" else package.train_completion
    start = time.perf_counter()
    _, report = train(h, cfg, splits)
    seconds = time.perf_counter() - start
    doc = report.to_dict()
    del doc["wall_seconds"]
    return seconds, hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def summary(runs) -> str:
    seconds = [s for s, _ in runs]
    return f"min={min(seconds):.3f} median={statistics.median(seconds):.3f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, metavar="DIR",
                        help="a checkout of the parent to time against, in turns")
    parser.add_argument("--runs", type=int, default=5, metavar="N",
                        help="runs per tree and job (default 5)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    parent = load_parent(args.parent) if args.parent else None
    for job in JOBS:
        head = f"{job[0]} nodes={job[1]} edges={job[2]} arity={job[3]}-{job[4]} runs={args.runs}"
        inputs = job_inputs(hc, job)
        if parent is None:
            runs = [timed_job(hc, inputs) for _ in range(args.runs)]
            print(f"{head} {summary(runs)} {runs[0][1]}", flush=True)
            continue
        parent_inputs = job_inputs(parent, job)
        before, after = [], []
        for turn in range(args.runs):
            if turn % 2 == 0:
                before.append(timed_job(parent, parent_inputs))
                after.append(timed_job(hc, inputs))
            else:
                after.append(timed_job(hc, inputs))
                before.append(timed_job(parent, parent_inputs))
        ratio = statistics.median(s for s, _ in before) / statistics.median(s for s, _ in after)
        agree = ("hashes agree" if {d for _, d in before} == {d for _, d in after}
                 else "hashes differ")
        print(f"{head} parent: {summary(before)} this: {summary(after)} ratio={ratio:.2f} "
              f"parent={before[0][1]} this={after[0][1]} {agree}", flush=True)


if __name__ == "__main__":
    main()
