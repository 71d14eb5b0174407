"""Command-line interface: partition, train, eval, query, sweep.

JSON and CSV outputs carry raw [0, 1] metrics; the human-readable
summaries format them as percentages with one decimal.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .convolution import OMEGA_KINDS
from .data import _read_edge_file, load_knowledge, load_simple
from .partition import cut, partition
from .training import (
    TASKS,
    TrainConfig,
    _check_vocabulary,
    evaluate,
    predict_edge,
    predict_relation,
    train_classification,
    train_completion,
    train_prediction,
)

logger = logging.getLogger(__name__)

_PRIMARY_METRIC = {"completion": "mrr", "prediction": "auc", "classification": "accuracy"}


def _percent(x: float) -> str:
    return f"{100.0 * x:.1f}"


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated fractions")
    return tuple(parts)


def _parse_switch(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on or off, got {text!r}")
    return text == "on"


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


_TRAIN = {"completion": train_completion, "classification": train_classification,
          "prediction": train_prediction}


def _load_structure(path: Path):
    """Any dataset as a bare hypergraph and its node names: knowledge dir
    or edge-list file."""
    if path.is_dir():
        kh, _ = load_knowledge(path)
        return kh.base, kh.entity_names
    return _read_edge_file(path)


def _load_task_data(cfg: TrainConfig, path: Path):
    """The task's dataset: (hypergraph or knowledge hypergraph, splits,
    node names)."""
    if cfg.task == "prediction":
        return load_simple(path, cfg.split_ratios, cfg.seed)
    kh, splits = load_knowledge(path)
    return kh, splits, kh.entity_names


# train flag -> the TrainConfig field it sets; a flag left out keeps the field's default
_FIELD_OF = {"k": "clusters", "omega": "omega", "bilinear": "bilinear", "dim": "hidden_dim",
             "epochs": "epochs", "patience": "patience", "lr": "learning_rate",
             "batch_size": "batch_size", "seed": "seed", "ratios": "split_ratios"}


def _config_from_args(args) -> TrainConfig:
    given = {field: getattr(args, flag) for flag, field in _FIELD_OF.items()}
    return TrainConfig(task=args.task, **{f: v for f, v in given.items() if v is not None})


def _run_training(cfg: TrainConfig, data_path: Path):
    """Load data for the task, train, and return (model, report)."""
    data, splits, names = _load_task_data(cfg, data_path)
    model, report = _TRAIN[cfg.task](data, cfg, splits)
    model.entity_names = names
    return model, report


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """The task, the data and one flag per ``_FIELD_OF`` entry; each default
    is the field's own."""
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--data", required=True, type=Path)
    p.add_argument("--k", type=int, help="cluster count")
    p.add_argument("--omega", choices=OMEGA_KINDS,
                   help="spread statistic (default depends on task)")
    p.add_argument("--bilinear", type=_parse_switch, metavar="{on,off}")
    p.add_argument("--dim", type=int, help="hidden/representation width")
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--ratios", type=_parse_ratios,
                   help="train,valid,test fractions for datasets without split files")


def _cmd_partition(args) -> int:
    h, names = _load_structure(args.data)
    c = partition(h, args.k, balance_epsilon=args.epsilon)
    lines = "".join(f"{name} {c.cluster_of[v]}\n" for v, name in enumerate(names))
    if args.output:
        Path(args.output).write_text(lines, encoding="utf-8")
    else:
        sys.stdout.write(lines)
    print(f"cut: {cut(h, c)}", file=sys.stderr if not args.output else sys.stdout)
    return 0


def _cmd_train(args) -> int:
    cfg = _config_from_args(args)
    model, report = _run_training(cfg, args.data)
    doc = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.output:
        Path(args.output).write_text(doc + "\n", encoding="utf-8")
    else:
        print(doc)
    if args.checkpoint:
        save_checkpoint(model, args.checkpoint)
    summary = ", ".join(
        f"{name} {_percent(value)}%" for name, value in report.test_metrics.items()
    )
    print(
        f"{cfg.task}: {summary} (best epoch {report.best_epoch}, "
        f"{report.wall_seconds:.1f}s)",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    data, splits, names = _load_task_data(model.config, args.data)
    if model.task == "prediction" and model.entity_names:  # evaluate checks the others
        _check_vocabulary("node", names, model.entity_names)
    print(json.dumps(evaluate(model, data, splits), sort_keys=True))
    return 0


def _resolve_nodes(model, tokens: list[str]) -> list[int]:
    names = {name: i for i, name in enumerate(model.entity_names or ())}
    ids = []
    for position, tok in enumerate(tokens, 1):
        if not tok:
            raise ValueError(f"--nodes: empty name at position {position}")
        if tok in names:
            ids.append(names[tok])
        elif tok.isdigit():
            ids.append(int(tok))
        else:
            raise ValueError(f"unknown node {tok!r}")
    return ids


def _cmd_query(args) -> int:
    model = load_checkpoint(args.checkpoint)
    ids = _resolve_nodes(model, args.nodes.split(","))
    if model.task == "prediction":
        score = predict_edge(model, ids)
        print(f"edge score: {score:.6f}")
        return 0
    for rel, score in predict_relation(model, ids):
        print(f"{model.relation_names[rel]}\t{score:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    base = _config_from_args(args)
    field = _FIELD_OF[args.param]
    metric_name = _PRIMARY_METRIC[base.task]
    # every value is checked before the first job trains
    configs = [(value, replace(base, **{field: value})) for value in args.values]
    rows = []
    for value, cfg in configs:
        _, report = _run_training(cfg, args.data)
        rows.append((value, report.test_metrics[metric_name]))
        logger.info("%s=%d -> %s %.4f", args.param, value, metric_name, rows[-1][1])
    sink = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow([args.param, metric_name])
        writer.writerows(rows)
    finally:
        if args.output:
            sink.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperconv",
        description="Hypergraph partitioning and hyperedge convolution tasks",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="cluster nodes, write `name cluster` lines")
    p.add_argument("data", type=Path, help="knowledge dir or hyperedge file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("train", help="train a task model")
    _add_train_flags(p)
    p.add_argument("-o", "--output", type=Path, help="report JSON path (default stdout)")
    p.add_argument("--checkpoint", type=Path, help="model checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="recompute test metrics from a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("query", help="score a node set against a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--nodes", required=True, help="comma-separated names or ids")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("sweep", help="train across a parameter grid, emit CSV")
    _add_train_flags(p)
    p.add_argument("--param", required=True, choices=["k", "dim", "epochs", "seed"])
    p.add_argument("--values", required=True, type=_parse_ints,
                   help="comma-separated integers")
    p.add_argument("-o", "--output", type=Path, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
