"""Metric names and units, read from ``BENCHMARK.json``, and what each
per-layer metric should move.

``BENCHMARK.json`` at the repository root is the one definition of every
metric's name, unit, direction and bound. This module adds what the file
has no field for: for each per-layer metric, the end-to-end metric it
should move and on which workload, so a change to one layer names its
expected effect before it is measured. Traced runs print that mapping
beside each value.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])
PER_LAYER = tuple(m["name"] for m in SPEC["per_layer"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

PRED, COMP, QUERY = "prediction-dense", "completion-sparse", "query-large"
_SETUP_TRAIN = f"setup_s on {COMP} and {PRED}"
_PARTITION = f"setup_s: most on {COMP}, less on {PRED}, none on {QUERY}"
_TRAIN_LOOP = f"sets_per_s on {COMP} and {PRED}"
_ADAM = f"sets_per_s, mostly on {PRED}"
_SCORE = f"latency_p50_ms on {QUERY}; a little sets_per_s on {COMP}"
# whole-graph e2n is ~90% of a query but ~5% of a training loop at these sizes
_WASTE = f"latency_p50_ms on {QUERY}; little on {COMP} and {PRED}"

MOVES = {
    "data.load.s": f"setup_s on {COMP}",
    "hypergraph.build.s": _SETUP_TRAIN,
    "partition.s": _PARTITION,
    "partition.coarsen.s": _PARTITION,
    "partition.coarsen.calls": _PARTITION,
    "partition.refine.s": _PARTITION,
    "partition.cut": f"quality on {COMP} and {PRED}",
    "partition.cut.base_edges": "base of partition.cut",
    "partition.cut_eval.s": f"sets_per_s on {COMP}",
    "features.s": _SETUP_TRAIN,
    "training.negatives.s": f"setup_s on {PRED}",
    "training.negatives.calls": f"setup_s on {PRED}",
    "training.negatives.skipped": "base: training.negatives.calls",
    "training.adam.s": _ADAM,
    "training.adam.calls": _ADAM,
    "training.adam.ms_per_step": _ADAM,
    "training.loop_self.s": _TRAIN_LOOP,
    "conv.fwd_train.s": _TRAIN_LOOP,
    "conv.fwd_train.calls": _TRAIN_LOOP,
    "conv.fwd_train.ms_per_call": _TRAIN_LOOP,
    "conv.bwd.s": _TRAIN_LOOP,
    "conv.bwd.calls": _TRAIN_LOOP,
    "conv.bwd.ms_per_call": _TRAIN_LOOP,
    "conv.fwd_score.s": _SCORE,
    "conv.fwd_score.calls": _SCORE,
    "conv.fwd_score.sets": _SCORE,
    "conv.useful_edge_share": _WASTE,
    "conv.useful_edge_share.base": "base: edges of the structure, summed over forwards",
    "conv.useful_node_share": _WASTE,
    "conv.useful_node_share.base": "base: nodes of the structure, summed over forwards",
    "conv.e2n.ms": f"latency_p50_ms on {QUERY}",
    "conv.n2e.ms": _TRAIN_LOOP,
    "metrics.s": f"sets_per_s on {COMP}",
    "checkpoint.load.s": f"setup_s on {QUERY}",
    "checkpoint.bytes": f"setup_s on {QUERY}",
    "trace.overhead_share": "traced against untraced sessions of the same run",
}
