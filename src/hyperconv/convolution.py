"""Trainable hyperedge convolution with exact gradients.

One layer is edge-to-node aggregation (mean over incident edge features,
concatenated with the node's cluster one-hot) followed by node-to-edge
summarization (a spread statistic over member node features, optional
bilinear lift, linear map, nonlinearity). Two stacked layers score
arbitrary query sets of nodes; the backward pass returns exact weight
gradients for both layers.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hypergraph import Hypergraph

logger = logging.getLogger(__name__)

OMEGA_KINDS = ("mean", "var", "minmax")
AGG_KINDS = ("mean", "harmonic")
HARMONIC_EPS = 1e-6


@dataclass
class LayerParams:
    """One trainable layer: weight matrix plus its nonlinearity tag."""

    weight: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 2 or self.weight.shape[0] < 1:
            raise ValueError("weight must be a 2-d matrix with out_dim >= 1")
        if not np.isfinite(self.weight).all():
            raise ValueError("weight contains NaN or Inf")
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


def init_layer(
    out_dim: int,
    omega_dim: int,
    rng: np.random.Generator,
    bilinear: bool = True,
    activation: str = "relu",
) -> LayerParams:
    """Uniform init in [-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in = omega_dim * omega_dim if bilinear else omega_dim
    a = np.sqrt(6.0 / (fan_in + out_dim))
    weight = rng.uniform(-a, a, size=(out_dim, fan_in))
    return LayerParams(weight, activation)


def _act(pre: np.ndarray, tag: str) -> np.ndarray:
    return np.maximum(pre, 0.0) if tag == "relu" else pre


def _act_grad(pre: np.ndarray, tag: str) -> np.ndarray:
    return (pre > 0.0).astype(np.float64) if tag == "relu" else np.ones_like(pre)


# ---------------------------------------------------------------------------
# incidence row slices


def _rows(h: Hypergraph, nodes: np.ndarray):
    """Incidence rows of ``nodes`` (ascending, distinct) over the edges
    they reference.

    Returns (slice, edges, degrees): the slice's columns are renumbered
    to positions in ``edges``, the referenced edge ids in ascending
    order. Each row keeps its entries in order, so a product over the
    slice sums in the same order as over the whole incidence.
    """
    starts = h.node_ptr[nodes]
    counts = h.node_ptr[nodes + 1] - starts
    sub_indptr = np.zeros(nodes.size + 1, dtype=np.int64)
    np.cumsum(counts, out=sub_indptr[1:])
    cols = h.node_edges[np.repeat(starts - sub_indptr[:-1], counts) + np.arange(sub_indptr[-1])]
    edges, lookup = _renumbering([cols], h.num_edges)
    # scipy takes int32 indices as given but scans int64 ones to narrow them
    idx = np.int32 if cols.size < 2**31 else np.int64
    sub = sp.csr_matrix((np.ones(cols.size), lookup[cols].astype(idx), sub_indptr.astype(idx)),
                        shape=(nodes.size, edges.size))
    return sub, edges, counts.astype(np.float64)


def _renumbering(id_arrays, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids in ``id_arrays`` (all in [0, size)), ascending, and
    a lookup array sending each of them to its position in that list."""
    seen = np.zeros(size, dtype=bool)
    for ids in id_arrays:
        seen[ids] = True
    distinct = np.flatnonzero(seen)
    lookup = np.empty(size, dtype=np.int64)
    lookup[distinct] = np.arange(distinct.size)
    return distinct, lookup


# ---------------------------------------------------------------------------
# edge-to-node aggregation


def _aggregate(
    incidence: sp.csr_matrix,
    deg: np.ndarray,
    edge_features: np.ndarray,
    node_x: np.ndarray,
    agg: str,
):
    """Edge-to-node aggregation for the rows of an incidence matrix.

    ``edge_features`` has one row per column of ``incidence``, ``deg`` and
    ``node_x`` one per row. Returns the aggregates with ``node_x``
    appended, plus what the backward pass needs: the inverse degrees for
    mean, the reciprocal sums and reciprocals for harmonic.
    """
    if agg == "mean":
        inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        agg_part = (incidence @ edge_features) * inv_deg[:, None]
        aux = inv_deg
    elif agg == "harmonic":
        recip = 1.0 / (edge_features + HARMONIC_EPS)
        s = incidence @ recip
        agg_part = np.where(s != 0.0, deg[:, None] / np.where(s != 0.0, s, 1.0), 0.0)
        aux = (s, recip)
    else:
        raise ValueError(f"unknown aggregation {agg!r}")
    return np.concatenate([agg_part, node_x], axis=1), aux


def e2n(
    h: Hypergraph,
    edge_features: np.ndarray,
    node_x: np.ndarray,
    agg: str = "mean",
) -> np.ndarray:
    """Per-node features: aggregated incident edge features, then the
    node's own tag vector appended.

    Isolated nodes get a zero aggregate (counted and logged, not fatal).
    """
    if edge_features.shape[0] != h.num_edges:
        raise ValueError("edge feature row count does not match hypergraph")
    if node_x.shape[0] != h.num_nodes:
        raise ValueError("node tag row count does not match hypergraph")
    incidence, edges, deg = _rows(h, np.arange(h.num_nodes))
    isolated = int((deg == 0).sum())
    if isolated:
        logger.debug("%d isolated nodes aggregate to zero", isolated)
    edge_features = np.asarray(edge_features, dtype=np.float64)
    out, _ = _aggregate(incidence, deg, edge_features[edges],
                        np.asarray(node_x, dtype=np.float64), agg)
    return out


# ---------------------------------------------------------------------------
# grouped variable-size set reduction


class _SetBatch:
    """Node-id sets grouped by size for vectorized Omega reduction.

    Sets are canonicalized to sorted unique ids, which also pins the
    lowest-index tie-break used by the minmax subgradient.
    """

    def __init__(self, sets: Sequence[Sequence[int]], canonical: bool = False):
        if canonical:
            self.sets = [tuple(s) for s in sets]
        else:
            self.sets = [tuple(sorted(set(s))) for s in sets]
        self.count = len(self.sets)
        groups: dict[int, list[int]] = {}
        for t, s in enumerate(self.sets):
            if not s:
                raise ValueError(f"empty node set at position {t}")
            groups.setdefault(len(s), []).append(t)
        self.groups = {}
        for size, positions in sorted(groups.items()):
            pos = np.asarray(positions, dtype=np.int64)
            ids = np.asarray([self.sets[t] for t in positions], dtype=np.int64)
            self.groups[size] = (pos, ids)

    def localize(self, num_nodes: int) -> np.ndarray:
        """Renumber member ids to rows of the batch's own node list.

        Returns the distinct member ids in ascending order; afterwards
        ``reduce`` and ``backward`` index feature arrays with one row per
        entry of that list. Renumbering is monotone, so each set keeps
        its member order and the minmax tie-break.
        """
        nodes, lookup = _renumbering([ids for _, ids in self.groups.values()], num_nodes)
        self.groups = {size: (pos, lookup[ids]) for size, (pos, ids) in self.groups.items()}
        return nodes

    def reduce(self, kind: str, feats: np.ndarray):
        """Omega over each set's feature rows; returns (out, cache)."""
        d = feats.shape[1]
        out = np.empty((self.count, d), dtype=np.float64)
        cache: dict[int, tuple] = {}
        for size, (pos, ids) in self.groups.items():
            x = feats[ids]  # (cnt, size, d)
            if kind == "mean":
                out[pos] = x.mean(axis=1)
                cache[size] = ()
            elif kind == "var":
                mu = x.mean(axis=1)
                out[pos] = np.square(x - mu[:, None, :]).mean(axis=1)
                cache[size] = (x, mu)
            elif kind == "minmax":
                amax = x.argmax(axis=1)
                amin = x.argmin(axis=1)
                hi = np.take_along_axis(x, amax[:, None, :], axis=1)[:, 0, :]
                lo = np.take_along_axis(x, amin[:, None, :], axis=1)[:, 0, :]
                out[pos] = hi - lo
                cache[size] = (amax, amin)
            else:
                raise ValueError(f"unknown omega kind {kind!r}")
        return out, cache

    def backward(self, kind: str, grad_out: np.ndarray, dfeats: np.ndarray, cache) -> None:
        """Scatter-accumulate d(reduce)/d(feats) into ``dfeats``."""
        d = grad_out.shape[1]
        for size, (pos, ids) in self.groups.items():
            g = grad_out[pos]  # (cnt, d)
            if kind == "mean":
                contrib = np.repeat(g[:, None, :] / size, size, axis=1)
                np.add.at(dfeats, ids.reshape(-1), contrib.reshape(-1, d))
            elif kind == "var":
                x, mu = cache[size]
                contrib = (2.0 / size) * (x - mu[:, None, :]) * g[:, None, :]
                np.add.at(dfeats, ids.reshape(-1), contrib.reshape(-1, d))
            elif kind == "minmax":
                amax, amin = cache[size]
                cols = np.broadcast_to(np.arange(d)[None, :], g.shape)
                rows_hi = np.take_along_axis(ids, amax, axis=1)
                rows_lo = np.take_along_axis(ids, amin, axis=1)
                np.add.at(dfeats, (rows_hi.reshape(-1), cols.reshape(-1)), g.reshape(-1))
                np.subtract.at(dfeats, (rows_lo.reshape(-1), cols.reshape(-1)), g.reshape(-1))


# ---------------------------------------------------------------------------
# linear map over (optionally bilinear-lifted) summary vectors


def _affine_forward(weight: np.ndarray, z: np.ndarray, bilinear: bool) -> np.ndarray:
    """weight @ flat(z z^T) per row without materializing the outer products."""
    if not bilinear:
        return z @ weight.T
    t, d = z.shape
    out_dim = weight.shape[0]
    if weight.shape[1] != d * d:
        raise ValueError(
            f"weight expects input dim {weight.shape[1]}, bilinear gives {d * d}"
        )
    pre = np.empty((t, out_dim), dtype=np.float64)
    for j in range(out_dim):
        mj = weight[j].reshape(d, d)
        pre[:, j] = np.einsum("ti,ti->t", z @ mj, z)
    return pre


def _affine_backward(
    weight: np.ndarray,
    z: np.ndarray,
    grad_pre: np.ndarray,
    bilinear: bool,
    need_dz: bool = True,
):
    if not bilinear:
        dw = grad_pre.T @ z
        dz = grad_pre @ weight if need_dz else None
        return dw, dz
    t, d = z.shape
    out_dim = weight.shape[0]
    dw = np.empty_like(weight)
    dz = np.zeros_like(z) if need_dz else None
    for j in range(out_dim):
        gj = grad_pre[:, j]
        dw[j] = (z.T @ (z * gj[:, None])).reshape(-1)
        if need_dz:
            mj = weight[j].reshape(d, d)
            dz += gj[:, None] * (z @ (mj + mj.T))
    return dw, dz


def n2e(
    params: LayerParams,
    kind: str,
    node_features: np.ndarray,
    target_sets: Sequence[Sequence[int]],
    bilinear: bool = True,
) -> np.ndarray:
    """Summarize each node set and map it through the trainable layer.

    Works identically for real hyperedge member sets and for arbitrary
    query sets.
    """
    node_features = np.asarray(node_features, dtype=np.float64)
    batch = _SetBatch(target_sets)
    z, _ = batch.reduce(kind, node_features)
    pre = _affine_forward(params.weight, z, bilinear)
    return _act(pre, params.activation)


# ---------------------------------------------------------------------------
# the two-layer edge-to-edge stack


@dataclass
class E2ECache:
    """Intermediates of one forward pass, consumed by e2e_backward.

    Everything is restricted to the targets' receptive field:
    ``needed_edges`` are the global ids of the edges incident to a target
    node, ascending, and hold the first-layer rows ``z1``/``pre1``;
    ``inc2`` is the target nodes' incidence rows with columns renumbered
    into ``needed_edges``. ``z2`` has one row per target set.
    """

    kind: str
    bilinear: bool
    agg: str
    layers: tuple[LayerParams, ...]
    needed_edges: np.ndarray
    batch1: _SetBatch
    z1: np.ndarray
    pre1: np.ndarray
    inc2: sp.csr_matrix
    deg2: np.ndarray
    e2n2_aux: object
    batch2: _SetBatch
    red2_cache: dict
    z2: np.ndarray
    pre2: np.ndarray


def e2e_forward(
    layers: Sequence[LayerParams],
    kind: str,
    h: Hypergraph,
    edge_init: np.ndarray,
    node_x: np.ndarray,
    targets: Sequence[Sequence[int]],
    bilinear: bool = True,
    agg: str = "mean",
) -> tuple[np.ndarray, E2ECache]:
    """Run the stacked convolution and score the target node sets.

    The first layer summarizes real hyperedges; the second summarizes the
    targets, which may be real edges or arbitrary candidate sets. Only the
    targets' receptive field is computed, since nothing else can influence
    the output: the second layer reads the target nodes' incidence rows,
    those rows reference the needed edges, and the first layer reads the
    incidence rows of those edges' members. The cost of a call is set by
    that field, not by the size of ``h``. Row slices keep each row's
    summation order, so the aggregates are bit-identical to whole-graph
    ones; outputs match the whole-graph composition of ``e2n`` and ``n2e``
    up to the rounding of dense products over different row counts.
    """
    if len(layers) != 2:
        raise ValueError("the stack is two layers")
    if kind not in OMEGA_KINDS:
        raise ValueError(f"unknown omega kind {kind!r}")
    edge_init = np.asarray(edge_init, dtype=np.float64)
    node_x = np.asarray(node_x, dtype=np.float64)
    if edge_init.shape[0] != h.num_edges or node_x.shape[0] != h.num_nodes:
        raise ValueError("feature row counts do not match hypergraph")
    layer1, layer2 = layers[0], layers[1]

    batch2 = _SetBatch(targets)
    nodes2 = batch2.localize(h.num_nodes)
    inc2, needed, deg2 = _rows(h, nodes2)

    batch1 = _SetBatch([h.edge_members[e] for e in needed.tolist()], canonical=True)
    nodes1 = batch1.localize(h.num_nodes)
    inc1, edges1, deg1 = _rows(h, nodes1)
    nf1, _ = _aggregate(inc1, deg1, edge_init[edges1], node_x[nodes1], agg)
    z1, _ = batch1.reduce(kind, nf1)
    pre1 = _affine_forward(layer1.weight, z1, bilinear)
    ef1 = _act(pre1, layer1.activation)

    nf2, aux2 = _aggregate(inc2, deg2, ef1, node_x[nodes2], agg)
    z2, red2_cache = batch2.reduce(kind, nf2)
    pre2 = _affine_forward(layer2.weight, z2, bilinear)
    out = _act(pre2, layer2.activation)

    cache = E2ECache(
        kind=kind,
        bilinear=bilinear,
        agg=agg,
        layers=tuple(layers),
        needed_edges=needed,
        batch1=batch1,
        z1=z1,
        pre1=pre1,
        inc2=inc2,
        deg2=deg2,
        e2n2_aux=aux2,
        batch2=batch2,
        red2_cache=red2_cache,
        z2=z2,
        pre2=pre2,
    )
    return out, cache


def e2e_backward(cache: E2ECache, upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of both layer weights for a cached forward pass."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != cache.pre2.shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"forward output {cache.pre2.shape} (stale cache?)"
        )
    layer1, layer2 = cache.layers

    g2 = upstream * _act_grad(cache.pre2, layer2.activation)
    dw2, dz2 = _affine_backward(layer2.weight, cache.z2, g2, cache.bilinear)

    dnf2 = np.zeros((cache.inc2.shape[0], cache.z2.shape[1]), dtype=np.float64)
    cache.batch2.backward(cache.kind, dz2, dnf2, cache.red2_cache)

    # back through the second-layer aggregation onto the needed edges
    dagg = dnf2[:, : layer1.out_dim]
    if cache.agg == "mean":
        def1 = cache.inc2.T @ (dagg * cache.e2n2_aux[:, None])
    else:
        s, recip = cache.e2n2_aux
        with np.errstate(divide="ignore", invalid="ignore"):
            gs = np.where(
                s != 0.0, dagg * cache.deg2[:, None] / np.square(np.where(s != 0.0, s, 1.0)), 0.0
            )
        def1 = (cache.inc2.T @ gs) * np.square(recip)
    g1 = def1 * _act_grad(cache.pre1, layer1.activation)
    dw1, _ = _affine_backward(layer1.weight, cache.z1, g1, cache.bilinear, need_dz=False)
    return {"W1": dw1, "W2": dw2}
