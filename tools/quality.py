"""Per-seed test quality of the three training tasks on the benchmark's inputs.

For each seed the script writes the inputs the benchmark writes for it,
with ``bench/generate.py``: completion-sparse's noisy planted facts and
prediction-dense's planted graph, at full scale. It trains a completion
and a classification job on the facts and a prediction job on the graph,
with the benchmark's configs, and prints one line per seed and task: the
test metric (MRR, accuracy or AUC) and the sha256 prefix of the report
minus ``wall_seconds``:

    PYTHONPATH=src python tools/quality.py --seeds 1-10

A change that cannot keep the seeded reports bit-identical is compared
with its parent in one process:

    PYTHONPATH=src python tools/quality.py --seeds 1-10 --parent DIR

With ``--parent DIR`` the script loads the ``hyperconv`` package of the
parent checkout's ``src/`` beside this tree's and trains each job with
both. Each line gives both metrics, the delta (this tree minus the
parent) and whether the report hashes agree. A last line per task gives
the mean, minimum and maximum delta and how many seeds got better and
worse. A seed takes about 8 s a tree on one core.
"""

from __future__ import annotations

import blas_pin  # noqa: F401  (pins BLAS before numpy loads)

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

from partition_timing import load_parent

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


def job_inputs(package, task: str, workload: str, seed: int, inputs: Path):
    """The data, config and splits of a ``task`` job with ``workload``'s
    full-scale config on the inputs ``write_inputs`` wrote, built with
    ``package``."""
    scale = WORKLOADS[workload].scales["full"]
    cfg = package.TrainConfig(task=task, clusters=scale.clusters, hidden_dim=scale.hidden,
                              epochs=scale.epochs, patience=scale.epochs, seed=seed,
                              learning_rate=scale.learning_rate)
    if task == "prediction":
        data, splits, _ = package.load_simple(inputs / "edges.txt", cfg.split_ratios, cfg.seed)
    else:
        data, splits = package.load_knowledge(inputs / "facts")
    return data, cfg, splits


def train(package, inputs):
    """The model and report of the job ``job_inputs`` built."""
    data, cfg, splits = inputs
    return getattr(package, f"train_{cfg.task}")(data, cfg, splits)


def trained(package, job, seed: int, inputs: Path) -> tuple[float, str]:
    """The test metric and report hash of one job trained with ``package``."""
    task, workload, metric = job
    _, report = train(package, job_inputs(package, task, workload, seed, inputs))
    return report.test_metrics[metric], report_hash(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), metavar="A-B",
                        help="the seeds to train, a range such as 1-10 (default) or one seed")
    parser.add_argument("--parent", type=Path, metavar="DIR",
                        help="a checkout of the parent to compare with")
    args = parser.parse_args()
    parent = load_parent(args.parent) if args.parent else None
    deltas = {task: [] for task, _, _ in JOBS}
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            inputs = Path(tmp)
            write_inputs(seed, inputs)
            for job in JOBS:
                task, _, metric = job
                value, digest = trained(hc, job, seed, inputs)
                head = f"seed={seed} {task}"
                if parent is None:
                    print(f"{head} {metric}={value:.5f} {digest[:16]}", flush=True)
                    continue
                old, old_digest = trained(parent, job, seed, inputs)
                deltas[task].append(value - old)
                agree = "hashes agree" if digest == old_digest else "hashes differ"
                print(f"{head} parent={old:.5f} this={value:.5f} delta={value - old:+.3g} "
                      f"{agree}", flush=True)
    for task, values in deltas.items():
        if values:
            print(f"{task} seeds={len(values)} mean={statistics.mean(values):+.3g} "
                  f"min={min(values):+.3g} max={max(values):+.3g} "
                  f"better={sum(v > 0 for v in values)} worse={sum(v < 0 for v in values)}")


if __name__ == "__main__":
    main()
