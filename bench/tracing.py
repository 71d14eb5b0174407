"""Spans and counters recorded around the library's public names.

Nothing here edits the library. ``hooked`` swaps module attributes that
the task drivers look up at call time (``hyperconv.training.partition``,
``hyperconv.training.e2e_forward``, ...) for thin wrappers and puts the
originals back on exit. Three hooks stay on in untraced runs because the
end-to-end metrics need them: the first ``Adam.step`` timestamp (the end
of set-up), the count of target sets reaching ``e2e_backward``, and the
start of each ``e2e_forward`` (the start of a training batch). The
``Adam.step`` hook also runs the speed kernel (``speed.py``) after each
step, between batches.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import hyperconv.training as training

partition_module = sys.modules["hyperconv.partition"]

# span name -> the training-module names whose calls it times
TIMED_NAMES = {
    "hypergraph.build": ("build_hypergraph",),
    "partition": ("partition",),
    "features": ("node_onehot", "edge_cluster_onehot", "knowledge_edge_init"),
    "metrics": ("accuracy", "auc", "hit_at", "mrr", "rank_of_true"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans of one operation (a training job or a query).

    ``total`` and ``calls`` give None for a span never recorded, so a
    hook that stops firing shows as a missing value, not as a zero.
    """

    def __init__(self):
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, time.perf_counter(), 0.0)
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str, since: float = float("-inf")) -> float | None:
        spans = self.named(name)
        return sum(s.seconds for s in spans if s.start >= since) if spans else None

    def calls(self, name: str) -> int | None:
        return len(self.named(name)) or None


class Probe:
    """Per-operation state the hooks write into."""

    def __init__(self, tracer: Tracer | None = None, speed=None):
        self.tracer = tracer
        self.speed = speed
        self.first_step: float | None = None
        self.sets_stepped = 0
        self.batches: list[tuple[float, float]] = []  # forward start, Adam.step end
        self._forward_start = 0.0
        self._batch_start: float | None = None
        self._last_forward = None  # traced: (cache, span) of the latest forward

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _adam_step(self, fn):
        @functools.wraps(fn)
        def step(adam, grads):
            if self.first_step is None:
                self.first_step = time.perf_counter()
            with self.tracer.span("training.adam") if self.tracer else nullcontext():
                result = fn(adam, grads)
            if self._batch_start is not None:
                self.batches.append((self._batch_start, time.perf_counter()))
                self._batch_start = None
            if self.speed is not None:
                with self.tracer.span("speed.kernel") if self.tracer else nullcontext():
                    self.speed.tick()
            return result

        return step

    def _backward(self, fn):
        @functools.wraps(fn)
        def backward(cache, upstream):
            self.sets_stepped += cache.z2.shape[0]
            self._batch_start = self._forward_start
            if self.tracer is None:
                return fn(cache, upstream)
            if self._last_forward is not None and self._last_forward[0] is cache:
                self._last_forward[1].name = "conv.fwd_train"
            self._last_forward = None
            with self.tracer.span("conv.bwd"):
                return fn(cache, upstream)

        return backward

    def _forward(self, fn):
        @functools.wraps(fn)
        def forward(*args, **kwargs):
            self._forward_start = time.perf_counter()
            if self.tracer is None:
                return fn(*args, **kwargs)
            h = args[2] if len(args) > 2 else kwargs["h"]
            targets = args[5] if len(args) > 5 else kwargs["targets"]
            # a forward counts as scoring unless its cache reaches backward
            with self.tracer.span("conv.fwd_score") as record:
                out, cache = fn(*args, **kwargs)
            record.attrs.update(
                sets=len(targets),
                needed_edges=len(cache.needed_edges),
                edges=h.num_edges,
                target_nodes=len({v for s in targets for v in s}),
                nodes=h.num_nodes,
            )
            self._last_forward = (cache, record)
            return out, cache

        return forward

    def _sample_negative(self, fn):
        @functools.wraps(fn)
        def sample(*args, **kwargs):
            with self.tracer.span("training.negatives") as record:
                try:
                    return fn(*args, **kwargs)
                except training.SamplingError:
                    record.attrs["skipped"] = 1
                    raise

        return sample

    def _cut(self, fn):
        @functools.wraps(fn)
        def cut(h, c):
            with self.tracer.span("partition.cut_eval") as record:
                value = fn(h, c)
            record.attrs["cut"] = value
            return value

        return cut

    def patches(self):
        """(owner, attribute, wrapper factory) for every hooked name."""
        out = [
            (training.Adam, "step", self._adam_step),
            (training, "e2e_forward", self._forward),
            (training, "e2e_backward", self._backward),
        ]
        if self.tracer is None:
            return out
        for span_name, names in TIMED_NAMES.items():
            for name in names:
                out.append(
                    (training, name, functools.partial(self._timed, span_name))
                )
        out += [
            (partition_module, "coarsen",
             functools.partial(self._timed, "partition.coarsen")),
            (training, "cut", self._cut),
            (training, "sample_negative", self._sample_negative),
        ]
        return out


@contextmanager
def hooked(probe: Probe):
    """Install the probe's wrappers for the duration of the block."""
    saved = []
    try:
        for owner, name, factory in probe.patches():
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, factory(original))
        yield probe
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# spans -> per-layer metrics

LOOP_SPANS = ("conv.fwd_train", "conv.fwd_score", "conv.bwd", "training.adam", "metrics",
              "speed.kernel")


def _known(values: dict) -> dict:
    """Leave out the metrics whose spans were never recorded."""
    return {k: v for k, v in values.items() if v is not None}


def _forward_shares(forwards: list[Span]) -> dict:
    if not forwards:
        return {}
    edges = sum(s.attrs["edges"] for s in forwards)
    nodes = sum(s.attrs["nodes"] for s in forwards)
    return {
        "conv.useful_edge_share": sum(s.attrs["needed_edges"] for s in forwards) / edges,
        "conv.useful_edge_share.base": edges,
        "conv.useful_node_share": sum(s.attrs["target_nodes"] for s in forwards) / nodes,
        "conv.useful_node_share.base": nodes,
    }


def _per_call(tr: Tracer, name: str) -> dict:
    seconds, calls = tr.total(name), tr.calls(name)
    return {
        f"{name}.s": seconds,
        f"{name}.calls": calls,
        f"{name}.ms_per_call": None if calls is None else 1e3 * seconds / calls,
    }


def _scoring(tr: Tracer) -> dict:
    score = tr.named("conv.fwd_score")
    return {
        "conv.fwd_score.s": tr.total("conv.fwd_score"),
        "conv.fwd_score.calls": tr.calls("conv.fwd_score"),
        "conv.fwd_score.sets": sum(s.attrs["sets"] for s in score) if score else None,
    }


def job_layers(tr: Tracer, first_step: float, end: float, structure_edges: int) -> dict:
    """Layer metrics of one traced training job (load to return)."""
    partition_s = tr.total("partition")
    coarsen_s = tr.total("partition.coarsen")
    cuts = tr.named("partition.cut_eval")
    negatives = tr.named("training.negatives")
    adam = _per_call(tr, "training.adam")
    loop = [tr.total(name, since=first_step) for name in LOOP_SPANS]
    return _known({
        "data.load.s": tr.total("data.load"),
        "hypergraph.build.s": tr.total("hypergraph.build"),
        "partition.s": partition_s,
        "partition.coarsen.s": coarsen_s,
        "partition.coarsen.calls": tr.calls("partition.coarsen"),
        "partition.refine.s": None if None in (partition_s, coarsen_s)
        else partition_s - coarsen_s,
        "partition.cut": cuts[-1].attrs["cut"] if cuts else None,
        "partition.cut.base_edges": structure_edges,
        "partition.cut_eval.s": tr.total("partition.cut_eval"),
        "features.s": tr.total("features"),
        "training.negatives.s": tr.total("training.negatives"),
        "training.negatives.calls": tr.calls("training.negatives"),
        "training.negatives.skipped": sum(s.attrs.get("skipped", 0) for s in negatives)
        if negatives else None,
        "training.adam.s": adam["training.adam.s"],
        "training.adam.calls": adam["training.adam.calls"],
        "training.adam.ms_per_step": adam["training.adam.ms_per_call"],
        # post-setup wall time the traced layers do not account for
        "training.loop_self.s": None if None in loop else (end - first_step) - sum(loop),
        **_per_call(tr, "conv.fwd_train"),
        **_per_call(tr, "conv.bwd"),
        **_scoring(tr),
        **_forward_shares(tr.named("conv.fwd_train") + tr.named("conv.fwd_score")),
        "metrics.s": tr.total("metrics"),
    })


def query_layers(tr: Tracer) -> dict:
    """Layer metrics of one traced query."""
    return _known({**_scoring(tr), **_forward_shares(tr.named("conv.fwd_score"))})
