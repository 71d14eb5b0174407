"""Time whole training jobs on the benchmark's two training workloads' inputs.

One line per job: the minimum and median over the runs of the seconds
``train_prediction`` or ``train_completion`` takes, and the sha256 prefix
of the report minus ``wall_seconds``. The jobs train on the inputs
``bench/generate.py`` writes for seed 1 at full scale, with the
benchmark's configs: the prediction job on prediction-dense's planted
graph (1,600 nodes, 2,400 edges of arity 3-10, 16 clusters, hidden width
64, 3 epochs at rate 1e-2), the completion job on completion-sparse's
3,200 noisy planted facts (arity 2-6, 1,280 entities, 16 relations,
16 clusters, hidden width 64, 4 epochs). So a layer-1 kernel runs on the
fields the benchmark's jobs run on. The script pins BLAS to one thread
before numpy loads:

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
import statistics
import tempfile
import time
from pathlib import Path

from partition_timing import load_parent
from quality import job_inputs, report_hash, train, write_inputs

import hyperconv as hc

# (task, the workload whose full-scale inputs and config it trains on)
JOBS = (("prediction", "prediction-dense"), ("completion", "completion-sparse"))
SEED = 1


def timed_job(package, inputs) -> tuple[float, str]:
    start = time.perf_counter()
    _, report = train(package, inputs)
    seconds = time.perf_counter() - start
    return seconds, report_hash(report)[:16]


def summary(runs) -> str:
    seconds = [s for s, _ in runs]
    return f"min={min(seconds):.3f} median={statistics.median(seconds):.3f}"


def time_job(task: str, workload: str, directory: Path, parent, runs: int) -> None:
    """Print the line of one job on the inputs in ``directory``."""
    head = f"{task} workload={workload} seed={SEED} runs={runs}"
    inputs = job_inputs(hc, task, workload, SEED, directory)
    if parent is None:
        timed = [timed_job(hc, inputs) for _ in range(runs)]
        print(f"{head} {summary(timed)} {timed[0][1]}", flush=True)
        return
    parent_inputs = job_inputs(parent, task, workload, SEED, directory)
    before, after = [], []
    for turn in range(runs):
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
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(SEED, Path(tmp))
        for task, workload in JOBS:
            time_job(task, workload, Path(tmp), parent, args.runs)


if __name__ == "__main__":
    main()
