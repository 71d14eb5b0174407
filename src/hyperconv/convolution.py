"""Trainable hyperedge convolution with exact gradients.

One layer is edge-to-node aggregation (mean over incident edge features,
concatenated with the node's cluster one-hot) followed by node-to-edge
summarization (a spread statistic over member node features, optional
bilinear lift, linear map, nonlinearity). Two stacked layers score
arbitrary query sets of nodes; the backward pass returns exact weight
gradients for both layers.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hypergraph import Hypergraph, _segments

logger = logging.getLogger(__name__)

OMEGA_KINDS = ("mean", "var", "minmax")
AGG_KINDS = ("mean", "harmonic")
ACTIVATIONS = ("relu", "identity")
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
        if self.activation not in ACTIVATIONS:
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


def _rows(h: Hypergraph, nodes: np.ndarray, renumber: bool = True):
    """Incidence rows of ``nodes`` (ascending, distinct).

    Returns (slice, edges, degrees). With ``renumber`` the slice's
    columns are positions in ``edges``, the referenced edge ids in
    ascending order; without it they are the global edge ids, the slice
    has one column per edge of ``h`` and ``edges`` is None. Each row
    keeps its entries in order, so a product over the slice sums in the
    same order as over the whole incidence.
    """
    pos, counts = _segments(h.node_ptr, nodes)
    cols = h.node_edges[pos]
    sub_indptr = np.zeros(nodes.size + 1, dtype=np.int64)
    np.cumsum(counts, out=sub_indptr[1:])
    edges, width = None, h.num_edges
    if renumber:
        edges, lookup = _renumbering([cols], h.num_edges)
        cols, width = lookup[cols], edges.size
    # scipy takes int32 indices as given but scans int64 ones to narrow them
    idx = np.int32 if cols.size < 2**31 else np.int64
    sub = sp.csr_matrix((np.ones(cols.size), cols.astype(idx), sub_indptr.astype(idx)),
                        shape=(nodes.size, width))
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
    nodes: np.ndarray,
    agg: str,
):
    """Edge-to-node aggregation for the rows of an incidence matrix.

    ``edge_features`` has one row per column of ``incidence``, ``deg`` and
    ``nodes`` one per row; row r of ``node_x[nodes]`` is appended to row
    r's aggregate, both written into one buffer. Returns that buffer plus
    what the backward pass needs: the inverse degrees for mean; the
    degrees, reciprocal sums and reciprocals for harmonic.
    """
    cols = edge_features.shape[1]
    out = np.empty((deg.size, cols + node_x.shape[1]), dtype=np.float64)
    agg_part = out[:, :cols]
    if agg == "mean":
        inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        np.multiply(incidence @ edge_features, inv_deg[:, None], out=agg_part)
        aux = inv_deg
    elif agg == "harmonic":
        recip = 1.0 / (edge_features + HARMONIC_EPS)
        s = incidence @ recip
        zero = s == 0.0
        np.divide(deg[:, None], np.where(zero, 1.0, s), out=agg_part)
        agg_part[zero] = 0.0
        aux = (deg, s, recip)
    else:
        raise ValueError(f"unknown aggregation {agg!r}")
    out[:, cols:] = node_x[nodes]
    return out, aux


def _edge_aggregate(h: Hypergraph, nodes: np.ndarray, edge_features: np.ndarray,
                    node_x: np.ndarray, agg: str) -> np.ndarray:
    """``_aggregate`` of the ``nodes`` rows over ``edge_features``, one row
    per edge of ``h``. Mean reads the table in place through global edge
    columns; harmonic takes reciprocals of the referenced rows only."""
    if agg == "harmonic":
        incidence, edges, deg = _rows(h, nodes)
        edge_features = edge_features[edges]
    else:
        incidence, _, deg = _rows(h, nodes, renumber=False)
    out, _ = _aggregate(incidence, deg, edge_features, node_x, nodes, agg)
    return out


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
    isolated = int((np.diff(h.node_ptr) == 0).sum())
    if isolated:
        logger.debug("%d isolated nodes aggregate to zero", isolated)
    return _edge_aggregate(h, np.arange(h.num_nodes), np.asarray(edge_features, dtype=np.float64),
                           np.asarray(node_x, dtype=np.float64), agg)


# ---------------------------------------------------------------------------
# grouped variable-size set reduction


def _flat_sets(sets: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node sets as their sorted distinct ids laid end to end, with each
    set's start and size: the arrays ``_SetBatch`` takes."""
    canon = [sorted(set(s)) for s in sets]
    sizes = np.fromiter(map(len, canon), dtype=np.int64, count=len(canon))
    members = np.fromiter(itertools.chain.from_iterable(canon), dtype=np.int64,
                          count=int(sizes.sum()))
    return members, np.cumsum(sizes) - sizes, sizes


class _SetBatch:
    """Node-id sets grouped by size for vectorized Omega reduction.

    Set t is ``members[starts[t]:starts[t] + sizes[t]]``, sorted and
    distinct as edge pins are and ``_flat_sets`` makes query sets, which
    pins the lowest-index tie-break used by the minmax subgradient.
    """

    def __init__(self, members: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
        self.count = sizes.size
        order = np.argsort(sizes, kind="stable")
        ordered = sizes[order]
        if ordered.size and ordered[0] == 0:
            raise ValueError(f"empty node set at position {order[0]}")
        cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
        bounds = [0, *cuts, order.size] if order.size else []
        self.groups = {}
        for a, b in zip(bounds, bounds[1:]):
            pos, size = order[a:b], int(ordered[a])
            self.groups[size] = (pos, members[starts[pos][:, None] + np.arange(size)])

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
            if kind == "mean":
                # member by member from zero, the order numpy's mean over
                # the members' axis adds in for d > 1, with no
                # (cnt, size, d) block
                acc = np.zeros((pos.size, d), dtype=np.float64)
                for i in range(size):
                    acc += feats[ids[:, i]]
                out[pos] = acc / size
                cache[size] = ()
            elif kind == "var":
                x = feats[ids]  # (cnt, size, d)
                mu = x.mean(axis=1)
                out[pos] = np.square(x - mu[:, None, :]).mean(axis=1)
                cache[size] = (x, mu)
            elif kind == "minmax":
                x = feats[ids]
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


_BLOCK_BYTES = 256 << 10


def _affine_forward(weight: np.ndarray, z: np.ndarray, bilinear: bool) -> np.ndarray:
    """weight @ flat(z z^T) per row without materializing the outer products.

    Output j is z_t^T M_j z_t with M_j = weight[j] viewed as d x d,
    bit-identical to computing the columns one at a time. The only
    scratch, the products z @ M_j of a block of columns, stays within
    ``_BLOCK_BYTES`` (or one column, if that is larger).
    """
    if not bilinear:
        return z @ weight.T
    t, d = z.shape
    out_dim = weight.shape[0]
    if weight.shape[1] != d * d:
        raise ValueError(
            f"weight expects input dim {weight.shape[1]}, bilinear gives {d * d}"
        )
    m = weight.reshape(out_dim, d, d)
    width = max(1, _BLOCK_BYTES // (8 * max(t * d, 1)))
    pre = np.empty((t, out_dim), dtype=np.float64)
    y = np.empty((min(width, out_dim), t, d), dtype=np.float64)
    for a in range(0, out_dim, width):
        b = min(a + width, out_dim)
        np.matmul(z, m[a:b], out=y[: b - a])
        np.einsum("jti,ti->jt", y[: b - a], z, out=pre[:, a:b].T)
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
    batch = _SetBatch(*_flat_sets(target_sets))
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
    z1: np.ndarray
    pre1: np.ndarray
    inc2: sp.csr_matrix
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

    batch2 = _SetBatch(*_flat_sets(targets))
    nodes2 = batch2.localize(h.num_nodes)
    inc2, needed, deg2 = _rows(h, nodes2)

    starts = h.edge_ptr[needed]
    batch1 = _SetBatch(h.pins, starts, h.edge_ptr[needed + 1] - starts)
    nodes1 = batch1.localize(h.num_nodes)
    nf1 = _edge_aggregate(h, nodes1, edge_init, node_x, agg)
    z1, _ = batch1.reduce(kind, nf1)
    del nf1
    pre1 = _affine_forward(layer1.weight, z1, bilinear)
    ef1 = _act(pre1, layer1.activation)

    nf2, aux2 = _aggregate(inc2, deg2, ef1, node_x, nodes2, agg)
    z2, red2_cache = batch2.reduce(kind, nf2)
    pre2 = _affine_forward(layer2.weight, z2, bilinear)
    out = _act(pre2, layer2.activation)

    cache = E2ECache(
        kind=kind,
        bilinear=bilinear,
        agg=agg,
        layers=tuple(layers),
        needed_edges=needed,
        z1=z1,
        pre1=pre1,
        inc2=inc2,
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
        deg2, s, recip = cache.e2n2_aux
        with np.errstate(divide="ignore", invalid="ignore"):
            gs = np.where(
                s != 0.0, dagg * deg2[:, None] / np.square(np.where(s != 0.0, s, 1.0)), 0.0
            )
        def1 = (cache.inc2.T @ gs) * np.square(recip)
    g1 = def1 * _act_grad(cache.pre1, layer1.activation)
    dw1, _ = _affine_backward(layer1.weight, cache.z1, g1, cache.bilinear, need_dz=False)
    return {"W1": dw1, "W2": dw2}
