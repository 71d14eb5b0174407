"""Per-seed test quality and training time of the benchmark's three tasks.

For each seed the script writes the full-scale inputs ``bench/generate.py``
writes for completion-sparse (noisy planted facts) and prediction-dense
(a planted graph). It trains a completion and a classification job on the
facts and a prediction job on the graph with the benchmark's configs,
``--runs`` times each (default 1), with BLAS on one thread. Per seed and
task it prints the test metric (MRR, accuracy or AUC), the minimum and
median seconds of the training call and the sha256 prefix of the report
minus ``wall_seconds``. It fails if one tree's runs disagree on the hash:

    PYTHONPATH=src python tools/quality.py --seeds 1-10

With ``--parent DIR`` it loads the parent checkout's ``hyperconv`` from
its ``src/`` beside this tree's and trains each job with both in turns,
the parent first in odd turns. Each line gives both metrics, the delta
(this tree minus the parent), both trees' seconds, the ratio of the
median seconds (parent over this tree) and whether the hashes agree. A
last line per task gives the mean, minimum and maximum delta, the seeds
that got better and worse, and the median time ratio over the seeds. A
speed change on the training path quotes those ratios beside its bench
pairs:

    PYTHONPATH=src python tools/quality.py --parent DIR --seeds 1 --runs 5

A seed takes about 8 s a tree and run on one core.
"""

from __future__ import annotations

import blas_pin  # noqa: F401  (pins BLAS before numpy loads)

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

from parent_tree import in_turns, load_parent

import hyperconv as hc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from generate import write_planted_graph, write_planted_knowledge  # noqa: E402
from workloads import WORKLOADS, report_hash  # noqa: E402

# (task, workload whose full-scale inputs and config it trains on, metric)
JOBS = (("completion", "completion-sparse", "mrr"),
        ("classification", "completion-sparse", "accuracy"),
        ("prediction", "prediction-dense", "auc"))


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def write_inputs(seed: int, directory: Path) -> None:
    """The full-scale inputs the benchmark writes for ``seed``: the facts of
    completion-sparse in ``facts/`` and the graph of prediction-dense in
    ``edges.txt``."""
    write_planted_knowledge(WORKLOADS["completion-sparse"].scales["full"].size, seed,
                            directory / "facts")
    write_planted_graph(WORKLOADS["prediction-dense"].scales["full"].size, seed,
                        directory / "edges.txt")


def trainer(package, job, seed: int, inputs: Path):
    """A call that trains ``job`` with ``package`` and its workload's config
    on the inputs ``write_inputs`` wrote, loaded once, and returns the seconds
    of the training call, the test metric and the report hash."""
    task, workload, metric = job
    scale = WORKLOADS[workload].scales["full"]
    cfg = package.TrainConfig(task=task, clusters=scale.clusters, hidden_dim=scale.hidden,
                              epochs=scale.epochs, patience=scale.epochs, seed=seed,
                              learning_rate=scale.learning_rate)
    if task == "prediction":
        data, splits, _ = package.load_simple(inputs / "edges.txt", cfg.split_ratios, cfg.seed)
    else:
        data, splits = package.load_knowledge(inputs / "facts")
    train = getattr(package, f"train_{task}")

    def run() -> tuple[float, float, str]:
        start = time.perf_counter()
        _, report = train(data, cfg, splits)
        seconds = time.perf_counter() - start
        return seconds, report.test_metrics[metric], report_hash(report)[:16]
    return run


def summary(head: str, runs) -> tuple[float, float, str, str]:
    """The metric, the median seconds, the seconds' text and the hash of one
    tree's runs of a job. Exits if the runs disagree on the hash."""
    hashes = sorted({digest for _, _, digest in runs})
    if len(hashes) > 1:
        sys.exit(f"{head}: the runs disagree on the report hash: {' '.join(hashes)}")
    seconds = [s for s, _, _ in runs]
    median = statistics.median(seconds)
    return runs[0][1], median, f"min={min(seconds):.3f} median={median:.3f}", hashes[0]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), metavar="A-B",
                        help="the seeds to train, a range such as 1-10 (default) or one seed")
    parser.add_argument("--runs", type=int, default=1, metavar="N",
                        help="runs per tree, seed and task (default 1)")
    parser.add_argument("--parent", type=Path, metavar="DIR",
                        help="a checkout of the parent to compare with, in turns")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    parent = load_parent(args.parent) if args.parent else None
    deltas = {task: [] for task, _, _ in JOBS}
    ratios = {task: [] for task, _, _ in JOBS}
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            inputs = Path(tmp)
            write_inputs(seed, inputs)
            for job in JOBS:
                task, _, metric = job
                head = f"seed={seed} {task}"
                this = trainer(hc, job, seed, inputs)
                if parent is None:
                    value, _, seconds, digest = summary(head, [this() for _ in range(args.runs)])
                    print(f"{head} {metric}={value:.5f} {seconds} {digest}", flush=True)
                    continue
                before, after = in_turns(args.runs, trainer(parent, job, seed, inputs), this)
                old, old_median, old_seconds, old_digest = summary(f"{head} parent", before)
                value, median, seconds, digest = summary(f"{head} this", after)
                deltas[task].append(value - old)
                ratios[task].append(old_median / median)
                agree = "hashes agree" if digest == old_digest else "hashes differ"
                print(f"{head} parent={old:.5f} this={value:.5f} delta={value - old:+.3g} "
                      f"parent: {old_seconds} this: {seconds} ratio={ratios[task][-1]:.2f} "
                      f"{agree}", flush=True)
    for task, values in deltas.items():
        if values:
            print(f"{task} seeds={len(values)} mean={statistics.mean(values):+.3g} "
                  f"min={min(values):+.3g} max={max(values):+.3g} "
                  f"better={sum(v > 0 for v in values)} worse={sum(v < 0 for v in values)} "
                  f"ratio={statistics.median(ratios[task]):.2f}")


if __name__ == "__main__":
    main()
