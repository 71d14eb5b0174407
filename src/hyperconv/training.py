"""Training pipelines for the three downstream tasks.

Every stage trains through one loop, ``_fit``, which owns the stage's Adam:
shuffled mini-batches, early stopping on a validation metric and a restore
of the best epoch's weights. Completion and classification draw each batch
from a few partition clusters (as Cluster-GCN does), so its receptive field
stays small; prediction's batches carry negatives with wide fields anyway,
and keep a uniform shuffle. Knowledge completion and hyperedge
classification score batches of target edges against their relation (or
class) label with cross entropy, with the target's own relation id hidden
from layer 1's count for the duration of the batch. Hyperedge prediction
trains in two stages, a cluster-id pretext task followed by a
frozen-representation binary head. One function, ``_test_metrics``, scores
the test sets for the drivers and for ``evaluate``.

Every driver sets a run up the same way: ``_prepare`` fixes the splits and
builds and partitions the training-edge structure, and ``_new_model``
holds the edge features as ids and draws both layers over it. Message-passing
structure, and the partition that seeds the features, therefore come
from training edges only.
Validation and test edges enter solely as query sets.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
import numbers
import reprlib
import time
import weakref
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .convolution import (
    OMEGA_KINDS,
    LayerParams,
    e2e_backward,
    e2e_forward,
    init_layer,
    lift_edges,
)
from .data import Splits
from .features import EdgeIds, edge_cluster_pool, node_onehot
# the dense builders go unused here, but bench/tracing.py times them by these names
from .features import edge_cluster_onehot, knowledge_edge_init  # noqa: F401
from .hypergraph import Hypergraph, KnowledgeHypergraph, _edge_sets, _node_sets, build_hypergraph
from .metrics import accuracy, auc, hit_at, mrr, rank_of_true
from .partition import ClusterAssignment, cut, partition

logger = logging.getLogger(__name__)

TASKS = ("completion", "prediction", "classification")

_OMEGA_DEFAULT = {"completion": "mean", "prediction": "minmax", "classification": "mean"}


# the JSON types each TrainConfig annotation takes (a JSON true or false is
# not a number), and their names in messages
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,),
               "str | None": (str, type(None)), "tuple[float, float, float]": (list,)}
_JSON_NAMES = {str: "a string", int: "an integer", float: "a float", bool: "true or false",
               list: "a list", dict: "an object", type(None): "null"}


def _check_type(name: str, value, types: tuple[type, ...]) -> None:
    """Fail naming the field unless ``value`` is exactly one of ``types``:
    so True is no integer, and 4.0 no integer either."""
    if type(value) not in types:
        expected = " or ".join(_JSON_NAMES[t] for t in types)
        raise ValueError(f"{name} is {reprlib.repr(value)}, expected {expected}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the data itself.

    ``omega=None`` picks the per-task default: mean for completion and
    classification, minmax for prediction. The edge-to-node aggregation is
    always the mean, and the partition's balance bound ``partition``'s
    default, so neither is a field.
    """

    task: str
    clusters: int = 16
    omega: str | None = None
    bilinear: bool = True
    hidden_dim: int = 64
    epochs: int = 300
    patience: int = 20
    learning_rate: float = 1e-3
    batch_size: int = 128
    seed: int = 0
    split_ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    # not a field: bench/workloads.py passes ``model.config.agg`` to e2e_forward
    agg = "mean"

    def __post_init__(self):
        for f in fields(self):
            # a tuple here, a list in JSON: its entries are checked below
            if f.name != "split_ratios":
                _check_type(f.name, getattr(self, f.name), _JSON_TYPES[f.type])
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.clusters < 1:
            raise ValueError("clusters must be >= 1")
        if self.omega is not None and self.omega not in OMEGA_KINDS:
            raise ValueError(f"unknown omega kind {self.omega!r}")
        if len(self.split_ratios) != 3 or not all(
                isinstance(r, numbers.Real) and not isinstance(r, bool) and r >= 0
                for r in self.split_ratios):
            raise ValueError("split_ratios must be three nonnegative fractions")
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ValueError("split_ratios must sum to 1")
        if self.epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ValueError("epochs, patience and batch_size start at 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")

    @property
    def omega_kind(self) -> str:
        return self.omega if self.omega is not None else _OMEGA_DEFAULT[self.task]

    def to_dict(self) -> dict:
        """The fields, with ``omega`` resolved and ``split_ratios`` a list."""
        return {**asdict(self), "omega": self.omega_kind,
                "split_ratios": list(self.split_ratios)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config whose ``to_dict`` is ``d``: every field with its JSON
        type, and no other key. Fails naming the first bad field."""
        kinds = {f.name: _JSON_TYPES[f.type] for f in fields(cls)}
        for name in sorted(d.keys() - kinds.keys()):
            raise ValueError(f"{name} is not a field")
        for name, types in kinds.items():
            if name not in d:
                raise ValueError(f"{name} is missing")
            _check_type(name, d[name], types)
        return cls(**{**d, "split_ratios": tuple(d["split_ratios"])})


@dataclass
class ModelParams:
    """Trainable weights: the two layers plus an optional linear head."""

    layer1: LayerParams
    layer2: LayerParams
    head_weight: np.ndarray | None = None
    head_bias: np.ndarray | None = None

    def trainable(self) -> dict[str, np.ndarray]:
        out = {"W1": self.layer1.weight, "W2": self.layer2.weight}
        if self.head_weight is not None:
            out["Wh"] = self.head_weight
            out["bh"] = self.head_bias
        return out

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.trainable().values())


@dataclass(init=False)
class TrainedModel:
    """A trained run's full inference state, the unit the checkpoint stores.

    ``structure`` holds training edges only; query sets are scored against
    it without ever joining it. The edge features are kept as ids:
    ``edge_type``, each structure edge's relation id (None for prediction),
    and ``edge_cluster_pool``, its pooled cluster id, computed once from
    ``clusters``; ``node_x`` is each node's cluster one-hot. ``edge_init``
    builds the dense one-hot table on access. The constructor also takes
    that table as ``edge_init``, in place of ``edge_type``, and fails
    naming it unless it is the one-hot of the ids.
    """

    task: str
    config: TrainConfig
    structure: Hypergraph
    clusters: ClusterAssignment
    params: ModelParams
    node_x: np.ndarray
    edge_type: np.ndarray | None
    relation_names: tuple[str, ...] | None
    entity_names: tuple[str, ...] | None

    def __init__(self, task: str, config: TrainConfig, structure: Hypergraph,
                 clusters: ClusterAssignment, params: ModelParams, *, node_x: np.ndarray,
                 edge_type: np.ndarray | None = None, edge_init: np.ndarray | None = None,
                 relation_names: tuple[str, ...] | None = None,
                 entity_names: tuple[str, ...] | None = None):
        self.task, self.config, self.structure, self.clusters = task, config, structure, clusters
        self.params, self.node_x, self.edge_type = params, node_x, edge_type
        self.relation_names, self.entity_names = relation_names, entity_names
        if edge_type is not None and np.shape(edge_type) != (structure.num_edges,):
            raise ValueError(f"edge_type has shape {np.shape(edge_type)}, the structure "
                             f"{structure.num_edges} edges")
        if edge_init is None:
            return
        table = np.asarray(edge_init, dtype=np.float64)
        num_rel = len(relation_names or ())
        if edge_type is None and num_rel and table.shape == (structure.num_edges,
                                                              num_rel + clusters.k):
            self.edge_type = table[:, :num_rel].argmax(axis=1)
        if not np.array_equal(table, self.edge_init):
            raise ValueError("edge_init is not the one-hot table of the model's edge types "
                             "and pooled cluster ids")

    @property
    def layers(self) -> tuple[LayerParams, LayerParams]:
        return (self.params.layer1, self.params.layer2)

    @cached_property
    def edge_cluster_pool(self) -> np.ndarray:
        """Each structure edge's pooled cluster id (``features.edge_cluster_pool``)."""
        return edge_cluster_pool(self.structure, self.clusters)

    @property
    def edge_ids(self) -> EdgeIds:
        """The edge features as layer 1 reads them."""
        if self.edge_type is None:
            return EdgeIds(self.edge_cluster_pool, self.clusters.k)
        return EdgeIds(self.edge_cluster_pool, self.clusters.k, self.edge_type,
                       len(self.relation_names or ()))

    @property
    def edge_init(self) -> np.ndarray:
        """The dense one-hot table of ``edge_ids``, built on each access."""
        return self.edge_ids.dense()


@dataclass
class RunReport:
    """Machine-readable summary of one training run."""

    task: str
    seed: int
    config: dict
    partition: dict
    history: list[dict] = field(default_factory=list)
    test_metrics: dict[str, float] = field(default_factory=dict)
    best_epoch: int = 0
    epochs_run: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per slice of an Adam step: two scratch buffers of this size
# serve every parameter, however large
_ADAM_CHUNK = 1 << 15


class Adam:
    """Adaptive-moment gradient descent over a named parameter dict.

    Arrays are updated in place so callers keep their references, which
    must be C-contiguous. Each parameter is stepped in slices of
    ``_ADAM_CHUNK`` elements through one pair of float64 scratch buffers
    of that size, so a step allocates nothing and the buffers stay small.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3):
        for name, p in params.items():
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} is not C-contiguous")
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = (np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK))
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name, grad in grads.items():
            flat = [a.reshape(-1) for a in (self.params[name], self.m[name], self.v[name], grad)]
            for lo in range(0, flat[0].size, _ADAM_CHUNK):
                p, m, v, g = (a[lo:lo + _ADAM_CHUNK] for a in flat)
                num, den = (buf[:g.size] for buf in self._scratch)
                m *= ADAM_BETA1
                np.multiply(1.0 - ADAM_BETA1, g, out=num)
                m += num
                v *= ADAM_BETA2
                np.square(g, out=num)
                num *= 1.0 - ADAM_BETA2
                v += num
                # lr * (m / c1) / (sqrt(v / c2) + eps), in that order
                np.divide(m, c1, out=num)
                num *= self.lr
                np.divide(v, c2, out=den)
                np.sqrt(den, out=den)
                den += ADAM_EPS
                num /= den
                p -= num


def _batch_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross entropy over rows; gradient already divided by the batch."""
    b = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    losses = lse - z[np.arange(b), labels]
    grad = np.exp(z - lse[:, None])
    grad[np.arange(b), labels] -= 1.0
    return float(losses.mean()), grad / b


# ---------------------------------------------------------------------------
# negative sampling


@dataclass(frozen=True)
class NegativeSample:
    """A corrupted copy of a real hyperedge, same arity, novel member set."""

    members: tuple[int, ...]


class SamplingError(RuntimeError):
    """No novel corruption of an edge could be drawn."""


class NoCorruptionError(SamplingError, ValueError):
    """The edge has no legal corruption: it spans every node, or fewer
    nodes lie outside it than it needs as fills."""


# per graph: the set of every edge's sorted member tuple, and the tuples in
# edge order, so that a draw reads no numpy scalar
_sampler_cache: "weakref.WeakKeyDictionary[Hypergraph, tuple]" = weakref.WeakKeyDictionary()


def _sampler_view(h: Hypergraph) -> tuple[frozenset, list[tuple[int, ...]]]:
    view = _sampler_cache.get(h)
    if view is None:
        edges = _edge_sets(h, range(h.num_edges))
        view = _sampler_cache[h] = (frozenset(edges), edges)
    return view


def sample_negative(
    h: Hypergraph, edge: int, rng: np.random.Generator
) -> NegativeSample:
    """Corrupt one hyperedge: keep ceil(|e|/2) members, fill from outside.

    Each attempt makes one generator call, ``u = rng.random(|e|)``, and
    maps ``u[i]`` to an integer in [0, n) as ``floor(u[i] * n)``. The
    first ``keep`` values run a partial Fisher-Yates shuffle of the
    members (swap position i with ``i + floor(u[i] * (|e| - i))``); the
    other ``|e| - keep`` run Floyd's algorithm over the ranks of the
    nodes outside the edge. So the kept members and the fills are both
    uniform subsets, up to the rounding of ``floor(u * n)``: u is a
    multiple of 2^-53, so each of the n values has probability within
    2^-52 of 1/n, a relative bias of at most n * 2^-52. A candidate
    colliding with any real edge's member set is rejected, up to 100
    attempts.

    Raises:
        ValueError: ``edge`` is not an integer edge id (a bool is not one)
            in range.
        NoCorruptionError: a ValueError and a SamplingError: the edge
            spans every node, or too few nodes lie outside it.
        SamplingError: 100 attempts produced only collisions.
    """
    if (isinstance(edge, bool) or not isinstance(edge, (int, np.integer))
            or not 0 <= edge < h.num_edges):
        raise ValueError(f"edge id {edge} is not an integer in [0, {h.num_edges})")
    existing, edges = _sampler_view(h)
    members = edges[edge]
    size = len(members)
    if h.num_nodes <= size:
        raise NoCorruptionError(f"edge {edge} spans every node; nothing to swap in")
    keep = math.ceil(size / 2)
    outside = h.num_nodes - size
    if outside < size - keep:
        raise NoCorruptionError(
            f"edge {edge}: only {outside} nodes outside, need {size - keep}"
        )
    # the r-th node outside the sorted members is r plus the number of
    # members m_i with m_i - i <= r (m_i - i nodes outside lie below m_i)
    below = [m - i for i, m in enumerate(members)]
    first = outside - (size - keep)
    for _ in range(100):
        u = rng.random(size).tolist()
        kept = list(members)
        for i in range(keep):  # partial Fisher-Yates: kept[:keep] is the kept subset
            j = i + int(u[i] * (size - i))
            kept[i], kept[j] = kept[j], kept[i]
        ranks: set[int] = set()
        for t, x in enumerate(u[keep:], first):  # Floyd: a uniform subset of range(outside)
            r = int(x * (t + 1))
            ranks.add(t if r in ranks else r)
        # kept and fill are disjoint sets, so cand lists distinct ids
        cand = tuple(sorted(kept[:keep] + [r + bisect.bisect_right(below, r) for r in ranks]))
        if cand not in existing:
            return NegativeSample(cand)
    raise SamplingError(f"edge {edge}: no novel corruption in 100 attempts")


def _sample_negatives(
    h: Hypergraph, edges, rng: np.random.Generator
) -> list[NegativeSample]:
    """One negative per edge; an edge that cannot be corrupted (a
    ``SamplingError``, ``NoCorruptionError`` included) is skipped with a
    warning."""
    out = []
    for e in edges:
        try:
            out.append(sample_negative(h, int(e), rng))
        except SamplingError as exc:
            logger.warning("skipping negative: %s", exc)
    if not out:
        raise ValueError("no negatives could be sampled")
    return out


def _draw_run_negatives(
    h: Hypergraph, splits: Splits, rng: np.random.Generator
) -> dict[str, list[NegativeSample]]:
    """One negative per positive per split, in a fixed draw order.

    The order matters: evaluation replays this from the run seed to
    reproduce the same test negatives a training run scored.
    Collisions are checked against every known edge, not just training
    ones.
    """
    return {
        part: _sample_negatives(h, ids, rng)
        for part, ids in (
            ("train", splits.train),
            ("valid", splits.valid),
            ("test", splits.test),
        )
    }


# ---------------------------------------------------------------------------
# the shared training loop and test metrics


# partition clusters per group of a block-ordered epoch: one cluster per
# batch loses accuracy, a few keep the batch's labels mixed
_CLUSTERS_PER_GROUP = 4


def _epoch_order(rng: np.random.Generator, count: int,
                 blocks: np.ndarray | None = None) -> np.ndarray:
    """One epoch's order of the items ``range(count)``.

    With no ``blocks`` this is ``rng.permutation(count)``. Otherwise
    ``blocks[i]`` is item i's cluster id: the clusters are shuffled and
    taken ``_CLUSTERS_PER_GROUP`` at a time, and the order lists every item
    once, group by group, shuffled within its group.
    """
    if blocks is None:
        return rng.permutation(count)
    k = int(blocks.max()) + 1
    group_of = np.empty(k, dtype=np.int64)
    group_of[rng.permutation(k)] = np.arange(k) // _CLUSTERS_PER_GROUP
    order = rng.permutation(count)
    return order[np.argsort(group_of[blocks[order]], kind="stable")]


def _fit(cfg: TrainConfig, rng: np.random.Generator, count: int, step, validate,
         params: dict[str, np.ndarray], history: list[dict],
         blocks: np.ndarray | None = None) -> int:
    """Shuffled mini-batch epochs with early stopping on a validation metric.

    Each epoch's order is ``_epoch_order(rng, count, blocks)``: a uniform
    shuffle, or, given each item's partition cluster in ``blocks``, the
    items of a few clusters at a time, so that a batch's receptive field
    stays small. Batches are cut from the order one after another.
    ``step(batch)`` yields one pair, the mean loss over the item positions
    in ``batch`` and the gradients of ``params`` by name, which this call's
    own ``Adam`` applies before the step resumes and frees its temporaries;
    ``validate()`` returns the metric, higher being better. Each epoch
    appends one row to ``history``, numbered on from the rows already there.
    After ``cfg.patience`` epochs without improvement the loop stops, and
    ``params`` are restored in place to the best epoch's values. Returns
    that epoch's number within this call.
    """
    adam = Adam(params, lr=cfg.learning_rate)
    best_value = -np.inf
    best_epoch = 0
    best_weights = None
    stale = 0
    for epoch in range(1, cfg.epochs + 1):
        order = _epoch_order(rng, count, blocks)
        loss_sum = 0.0
        # a diverging run overflows before the epoch's finite check stops it;
        # validation runs under the caller's error state
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, count, cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                # the step's temporaries live through the update, where the bench times a kernel
                for loss, grads in step(batch):
                    adam.step(grads)
                del grads  # not held through the next batch's forward
                loss_sum += loss * len(batch)
        if not all(np.isfinite(w).all() for w in params.values()):
            raise FloatingPointError(f"non-finite weights after epoch {epoch}")
        value = validate()
        history.append(
            {"epoch": len(history) + 1, "train_loss": loss_sum / count, "valid_metric": value}
        )
        if value > best_value:
            best_value = value
            best_epoch = epoch
            best_weights = [w.copy() for w in params.values()]
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    if best_weights is not None:
        for w, best in zip(params.values(), best_weights):
            w[...] = best
    return best_epoch


def _forward(model: TrainedModel, member_sets, lift: np.ndarray | None = None,
             edge_ids: EdgeIds | None = None):
    return e2e_forward(
        model.layers,
        model.config.omega_kind,
        model.structure,
        model.edge_ids if edge_ids is None else edge_ids,
        model.node_x,
        member_sets,
        bilinear=model.config.bilinear,
        lift=lift,
    )


def _binary_scores(model: TrainedModel, reps: np.ndarray) -> np.ndarray:
    """Monotone edge-existence score: logit margin of the positive class."""
    z = reps @ model.params.head_weight.T + model.params.head_bias
    return z[:, 1] - z[:, 0]


def _ranks(scores: np.ndarray, labels: np.ndarray) -> list[int]:
    return [rank_of_true(scores[i], int(labels[i])) for i in range(len(labels))]


def _test_metrics(model: TrainedModel, sets, labels: np.ndarray) -> dict[str, float]:
    """The task's test metrics over labelled query sets.

    Labels are relation or class ids, or for prediction 1 for a real edge
    and 0 for a negative.
    """
    scores, _ = _forward(model, sets)
    if model.task == "prediction":
        margin = _binary_scores(model, scores)
        return {"auc": auc(margin[labels == 1], margin[labels == 0])}
    if model.task == "classification":
        return {"accuracy": accuracy(scores.argmax(axis=1), labels)}
    ranks = _ranks(scores, labels)
    return {"mrr": mrr(ranks), "hit1": hit_at(ranks, 1), "hit3": hit_at(ranks, 3)}


def _report(model: TrainedModel, history, test_metrics, best_epoch, start) -> RunReport:
    cfg = model.config
    return RunReport(
        task=cfg.task,
        seed=cfg.seed,
        config=cfg.to_dict(),
        partition={"k": model.clusters.k, "cut": cut(model.structure, model.clusters),
                   "balanced": model.clusters.is_balanced()},
        history=history,
        test_metrics=test_metrics,
        best_epoch=best_epoch,
        epochs_run=len(history),
        wall_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# the shared run set-up


def _prepare(cfg: TrainConfig, h: Hypergraph, splits: Splits | None
             ) -> tuple[Splits, Hypergraph, ClusterAssignment]:
    """The run's splits (seeded from the config when not given), the
    structure of its training edges, and that structure's partition.

    Draws nothing from the run's rng.
    """
    if splits is None:
        splits = Splits.from_ratios(h.num_edges, cfg.split_ratios, cfg.seed)
    splits.check(h.num_edges)
    structure = build_hypergraph(_edge_sets(h, splits.train), num_nodes=h.num_nodes)
    clusters = partition(structure, cfg.clusters)
    return splits, structure, clusters


def _layer_shapes(cfg: TrainConfig, num_relations: int) -> tuple:
    """``(out_dim, omega_dim, activation)`` of layers 1 and 2. Layer 1 reads
    the relation one-hot (none for prediction) and two cluster one-hots.
    Prediction's layer 2 is a relu of width ``hidden_dim``, which its head
    reads; the relational tasks' is identity with one logit per relation."""
    k, hidden = cfg.clusters, cfg.hidden_dim
    if cfg.task == "prediction":
        return (hidden, 2 * k, "relu"), (hidden, hidden + k, "relu")
    return (hidden, num_relations + 2 * k, "relu"), (num_relations, hidden + k, "identity")


def _new_model(cfg: TrainConfig, rng: np.random.Generator, structure: Hypergraph,
               clusters: ClusterAssignment, edge_type=None, relation_names=None,
               entity_names=None) -> TrainedModel:
    """A model over the training structure, its edge features the ids
    ``edge_type`` (None for prediction) and the pooled clusters, and both
    layers freshly drawn from ``rng``, layer 1 first."""
    shapes = _layer_shapes(cfg, len(relation_names or ()))
    layers = [init_layer(out, omega, rng, cfg.bilinear, act) for out, omega, act in shapes]
    return TrainedModel(cfg.task, cfg, structure, clusters, ModelParams(*layers),
                        node_x=node_onehot(clusters), edge_type=edge_type,
                        relation_names=relation_names, entity_names=entity_names)


# ---------------------------------------------------------------------------
# completion and classification


def _facts(kh: KnowledgeHypergraph, ids) -> tuple[list, np.ndarray]:
    """Member sets and relation labels of the given edges."""
    return _edge_sets(kh.base, ids), kh.edge_type[ids]


def _train_relational(
    kh: KnowledgeHypergraph, cfg: TrainConfig, splits: Splits | None, task: str
) -> tuple[TrainedModel, RunReport]:
    if cfg.task != task:
        raise ValueError(f"config is for task {cfg.task!r}")
    start = time.perf_counter()
    if kh.num_relations < 2:
        raise ValueError("need at least 2 relation types")
    splits, structure, clusters = _prepare(cfg, kh.base, splits)
    # structure edge i is base edge splits.train[i]
    train_sets, labels = _facts(kh, splits.train)
    for name, ids in (("valid", splits.valid), ("test", splits.test)):
        unseen = ids[~np.isin(kh.edge_type[ids], labels)]
        if unseen.size:
            logger.warning("%d %s facts have a relation with no training fact, first %r",
                           unseen.size, name, kh.relation_names[kh.edge_type[unseen[0]]])
    rng = np.random.default_rng(cfg.seed)
    model = _new_model(cfg, rng, structure, clusters, labels, kh.relation_names,
                       kh.entity_names)

    def step(batch):
        # the targets' own labels stay out of the message passing
        out, cache = _forward(model, [train_sets[int(b)] for b in batch],
                              edge_ids=model.edge_ids.hide(batch))
        loss, dlogits = _batch_cross_entropy(out, labels[batch])
        yield loss, e2e_backward(cache, dlogits)

    valid_sets, valid_labels = _facts(kh, splits.valid)

    def validate():
        ranks = _ranks(_forward(model, valid_sets)[0], valid_labels)
        return mrr(ranks) if cfg.task == "completion" else hit_at(ranks, 1)

    history: list[dict] = []
    # batches from a few clusters at a time need layer 1 on fewer edges
    best_epoch = _fit(cfg, rng, len(labels), step, validate, model.params.trainable(),
                      history, blocks=model.edge_cluster_pool)
    test_metrics = _test_metrics(model, *_facts(kh, splits.test))
    return model, _report(model, history, test_metrics, best_epoch, start)


def train_completion(
    kh: KnowledgeHypergraph, cfg: TrainConfig, splits: Splits | None = None
) -> tuple[TrainedModel, RunReport]:
    """Learn to name the relation of an entity tuple; early-stops on
    validation MRR, reports test MRR and Hit@1/3."""
    return _train_relational(kh, cfg, splits, "completion")


def train_classification(
    kh: KnowledgeHypergraph, cfg: TrainConfig, splits: Splits | None = None
) -> tuple[TrainedModel, RunReport]:
    """Same machinery as completion with class labels; early-stops on
    validation Hit@1, reports test accuracy."""
    return _train_relational(kh, cfg, splits, "classification")


# ---------------------------------------------------------------------------
# hyperedge prediction (pretext + frozen binary head)


def _with_negatives(h: Hypergraph, ids, negatives: list[NegativeSample],
                    pos_labels: np.ndarray, neg_label: int) -> tuple[list, np.ndarray]:
    """The positives' member sets then the negatives', with their labels."""
    sets = _edge_sets(h, ids) + [s.members for s in negatives]
    labels = np.concatenate(
        [pos_labels, np.full(len(negatives), neg_label, dtype=np.int64)]
    )
    return sets, labels


def _test_candidates(h: Hypergraph, splits: Splits, negatives) -> tuple[list, np.ndarray]:
    return _with_negatives(h, splits.test, negatives, np.ones(len(splits.test), np.int64), 0)


def train_prediction(
    h: Hypergraph, cfg: TrainConfig, splits: Splits | None = None
) -> tuple[TrainedModel, RunReport]:
    """Two-stage hyperedge prediction.

    Stage 1 trains both layers on a pretext task: classify each candidate
    set into k+1 classes, the pooled cluster id for real edges and a
    dedicated fake class for corrupted ones. Stage 2 freezes the layers
    and fits a binary linear head on the 64-d set representations.
    Negatives are drawn once per run, one per positive, per split, from
    the run seed, so ``evaluate`` can replay them. No edge feature is
    hidden, so layer 1's inputs are lifted once (``lift_edges``) and every
    stage-1 forward and the frozen representations read them; the test
    metrics use the blocked kernels, as ``evaluate`` does. The pretext
    optimizer's moments go when stage 1's loop returns, and the table once
    the frozen representations exist, so the head trains without them.
    """
    if cfg.task != "prediction":
        raise ValueError(f"config is for task {cfg.task!r}")
    start = time.perf_counter()
    k = cfg.clusters
    splits, structure, clusters = _prepare(cfg, h, splits)
    rng = np.random.default_rng(cfg.seed)
    # the negatives are the seed's first draws, which ``evaluate`` replays
    neg = _draw_run_negatives(h, splits, rng)
    model = _new_model(cfg, rng, structure, clusters)
    # None above the size cap: the forwards then run the blocked kernels
    lift = lift_edges(cfg.omega_kind, structure, model.edge_ids, model.node_x, cfg.bilinear)
    layer1, layer2 = model.layers
    params = model.params
    pretext_w, pretext_b = init_layer(k + 1, cfg.hidden_dim, rng, False).weight, np.zeros(k + 1)

    # stage 1: pretext classes, k for a negative
    pooled = edge_cluster_pool(h, clusters)
    train_sets, train_labels = _with_negatives(
        h, splits.train, neg["train"], pooled[splits.train], k
    )
    valid_sets, valid_labels = _with_negatives(
        h, splits.valid, neg["valid"], pooled[splits.valid], k
    )

    def pretext_step(batch):
        reps, cache = _forward(model, [train_sets[int(b)] for b in batch], lift)
        logits = reps @ pretext_w.T + pretext_b
        loss, dlogits = _batch_cross_entropy(logits, train_labels[batch])
        grads = e2e_backward(cache, dlogits @ pretext_w)
        grads["Wh"] = dlogits.T @ reps
        grads["bh"] = dlogits.sum(axis=0)
        yield loss, grads

    def pretext_accuracy():
        logits = _forward(model, valid_sets, lift)[0] @ pretext_w.T + pretext_b
        return accuracy(logits.argmax(axis=1), valid_labels)

    history: list[dict] = []
    best_epoch = _fit(cfg, rng, len(train_sets), pretext_step, pretext_accuracy,
                      {**params.trainable(), "Wh": pretext_w, "bh": pretext_b}, history)

    # stage 2: frozen representations, fresh binary head
    train_reps = _forward(model, train_sets, lift)[0]
    bin_labels = (train_labels != k).astype(np.int64)
    valid_reps = _forward(model, valid_sets, lift)[0]
    valid_real = valid_labels != k
    del lift
    frozen1 = layer1.weight.copy()
    frozen2 = layer2.weight.copy()

    params.head_weight = head_w = init_layer(2, cfg.hidden_dim, rng, False).weight
    params.head_bias = head_b = np.zeros(2)

    def head_step(batch):
        reps = train_reps[batch]
        loss, dlogits = _batch_cross_entropy(reps @ head_w.T + head_b, bin_labels[batch])
        yield loss, {"Wh": dlogits.T @ reps, "bh": dlogits.sum(axis=0)}

    def head_auc():
        scores = _binary_scores(model, valid_reps)
        return auc(scores[valid_real], scores[~valid_real])

    _fit(cfg, rng, len(train_sets), head_step, head_auc, {"Wh": head_w, "bh": head_b}, history)
    if not (np.array_equal(frozen1, layer1.weight) and np.array_equal(frozen2, layer2.weight)):
        raise AssertionError("stage 2 must not touch the convolution weights")

    test_metrics = _test_metrics(model, *_test_candidates(h, splits, neg["test"]))
    return model, _report(model, history, test_metrics, best_epoch, start)


# ---------------------------------------------------------------------------
# inference and re-evaluation


def _check_vocabulary(kind: str, dataset, model) -> None:
    """Fail naming the first id at which the dataset's ``kind`` names
    differ from the model's, None standing for a name one side lacks: a
    model's ids mean the names it was trained with."""
    for i, (ours, theirs) in enumerate(itertools.zip_longest(dataset, model)):
        if ours != theirs:
            raise ValueError(f"dataset's {kind} {i} is {ours!r}, the model's is {theirs!r}")


def evaluate(model: TrainedModel, data, splits: Splits) -> dict[str, float]:
    """Recompute a trained model's test metrics against a dataset.

    For prediction models the test negatives are regenerated from the
    run seed with the training draw order, so the result matches the
    original report exactly, as long as the sampler draws as it did when
    the model was trained: a version-5 prediction checkpoint saved before
    ``sample_negative`` moved to one ``rng.random`` call per attempt is
    scored against the new negatives, and its AUC can differ from its old
    report. The splits are checked against the dataset
    as training checks them (``Splits.check``), and for relational models
    the relation and entity names as ``_check_vocabulary`` checks them.
    """
    h: Hypergraph = data if model.task == "prediction" else data.base
    if h.num_nodes != model.structure.num_nodes:
        raise ValueError(
            f"dataset has {h.num_nodes} nodes, model expects {model.structure.num_nodes}"
        )
    splits.check(h.num_edges)
    if model.task == "prediction":
        neg = _draw_run_negatives(h, splits, np.random.default_rng(model.config.seed))
        return _test_metrics(model, *_test_candidates(h, splits, neg["test"]))
    _check_vocabulary("relation", data.relation_names, model.relation_names or ())
    _check_vocabulary("entity", data.entity_names, model.entity_names or ())
    return _test_metrics(model, *_facts(data, splits.test))


def predict_relation(
    model: TrainedModel, candidate
) -> list[tuple[int, float]]:
    """Score every relation for a candidate entity set.

    Returns (relation id, logit) pairs sorted by descending score, ties
    by ascending id. The candidate is treated as an untyped query; it
    never joins the message-passing structure.
    """
    if model.task not in ("completion", "classification"):
        raise ValueError(f"model was trained for {model.task}")
    cand = [tuple(candidate)]
    _node_sets(cand, model.structure.num_nodes, "candidate")
    scores = _forward(model, cand)[0][0]
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [(int(r), float(scores[r])) for r in order]


def predict_edge(model: TrainedModel, candidate) -> float:
    """Probability that a node set forms a hyperedge, from the binary head."""
    if model.task != "prediction":
        raise ValueError(f"model was trained for {model.task}")
    cand = [tuple(candidate)]
    _node_sets(cand, model.structure.num_nodes, "candidate")
    margin = _binary_scores(model, _forward(model, cand)[0])[0]
    return float(1.0 / (1.0 + np.exp(-margin)))
