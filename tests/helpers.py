"""Independent reference implementations and random-instance generators.

Everything here is deliberately naive (python loops, exhaustive
enumeration) so the fast library code is checked against a second
opinion, not against itself.
"""

import itertools
import math

import numpy as np

from hyperconv.hypergraph import Hypergraph, build_hypergraph


def random_hypergraph(
    rng: np.random.Generator,
    max_nodes: int = 12,
    max_edges: int = 8,
    max_size: int | None = None,
) -> Hypergraph:
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, max_edges + 1))
    cap = min(n, max_size if max_size is not None else 5)
    edges = []
    for _ in range(m):
        size = int(rng.integers(1, cap + 1))
        edges.append(sorted(rng.choice(n, size=size, replace=False).tolist()))
    return build_hypergraph(edges, num_nodes=n)


def draw_edges(data, max_nodes: int = 12, max_edges: int = 10, max_size: int = 5):
    """Raw member lists and a node count drawn through hypothesis'
    ``st.data()``: isolated nodes, unary edges and repeated member ids all
    occur."""
    from hypothesis import strategies as st

    n = data.draw(st.integers(1, max_nodes), label="num_nodes")
    member = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.lists(member, min_size=1, max_size=max_size),
                               max_size=max_edges), label="edges")
    return edges, n


def draw_hypergraph(data, **sizes):
    """The hypergraph ``build_hypergraph`` makes of ``draw_edges``."""
    edges, n = draw_edges(data, **sizes)
    return build_hypergraph(edges, num_nodes=n)


def naive_incidence(h: Hypergraph) -> list[tuple[int, ...]]:
    """Each node's edges in ascending order, by transposing ``edge_members``."""
    out: list[list[int]] = [[] for _ in range(h.num_nodes)]
    for e, members in enumerate(h.edge_members):
        for v in members:
            out[v].append(e)
    return [tuple(edges) for edges in out]


def naive_bfs_order(h: Hypergraph) -> list[int]:
    """Breadth-first discovery order over the tuple views, one queue per
    component, components started from the lowest unseen id."""
    incidence = naive_incidence(h)
    edge_members = h.edge_members
    seen = [False] * h.num_nodes
    order = []
    for start in range(h.num_nodes):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for e in incidence[v]:
                for u in edge_members[e]:
                    if not seen[u]:
                        seen[u] = True
                        queue.append(u)
    return order


def naive_edge_order(h: Hypergraph) -> list[int]:
    """Nodes by first appearance over edges sorted by (size, id), then the
    nodes no edge holds, by id."""
    order = []
    edge_members = h.edge_members
    for e in sorted(range(h.num_edges), key=lambda e: (len(edge_members[e]), e)):
        order += [v for v in edge_members[e] if v not in order]
    return order + [v for v in range(h.num_nodes) if v not in order]


def recount_cut(h: Hypergraph, labels) -> int:
    labels = list(labels)
    total = 0
    for members in h.edge_members:
        seen = []
        for v in members:
            if labels[v] not in seen:
                seen.append(labels[v])
        total += len(seen) - 1
    return total


def naive_gains(h: Hypergraph, labels, counts) -> np.ndarray:
    """Cut reduction of moving each node into each cluster, counted edge by
    edge from a pin-count table; 0 in each node's own cluster."""
    k = counts.shape[1]
    out = np.zeros((h.num_nodes, k), dtype=np.int64)
    for v, edges in enumerate(naive_incidence(h)):
        a = int(labels[v])
        leave = sum(1 for e in edges if counts[e, a] == 1)
        for c in range(k):
            if c != a:
                out[v, c] = leave - sum(1 for e in edges if counts[e, c] == 0)
    return out


def naive_refine(h: Hypergraph, labels, k: int, weights, cap: int, max_passes: int = 8):
    """Greedy refinement by the move-order contract, recounting every gain
    before each move: apply the least (-gain, v, b) over unlocked v, b not
    v's cluster, gain > 0 and load[b] + weight[v] <= cap; a pass ends when
    no such move is left, and a pass that moves nothing ends the run.
    Returns the labels and the cut after each pass that moved."""
    labels = [int(c) for c in labels]
    weights = [int(w) for w in weights]
    n = h.num_nodes
    pass_cuts = []
    for _ in range(max_passes):
        locked = [False] * n
        moves = 0
        while True:
            counts = np.zeros((h.num_edges, k), dtype=np.int64)
            for e, members in enumerate(h.edge_members):
                for v in members:
                    counts[e, labels[v]] += 1
            gains = naive_gains(h, labels, counts)
            loads = [0] * k
            for v in range(n):
                loads[labels[v]] += weights[v]
            best = None
            for v in range(n):
                for b in range(k):
                    if (locked[v] or b == labels[v] or gains[v, b] <= 0
                            or loads[b] + weights[v] > cap):
                        continue
                    if best is None or (-gains[v, b], v, b) < best:
                        best = (-gains[v, b], v, b)
            if best is None:
                break
            _, v, b = best
            labels[v] = b
            locked[v] = True
            moves += 1
        if moves == 0:
            break
        pass_cuts.append(recount_cut(h, labels))
    return labels, pass_cuts


def naive_pool(h: Hypergraph, labels) -> list[int]:
    """Per-edge majority cluster by counting votes; ties to the lowest id."""
    out = []
    for members in h.edge_members:
        votes: dict[int, int] = {}
        for v in members:
            votes[int(labels[v])] = votes.get(int(labels[v]), 0) + 1
        out.append(min(votes, key=lambda c: (-votes[c], c)))
    return out


def uniform_hypergraph(seed: int, num_edges: int, arity: int) -> Hypergraph:
    """Random ``arity``-uniform hypergraph on num_edges / 2 nodes."""
    rng = np.random.default_rng(seed)
    n = num_edges // 2
    edges = [rng.choice(n, size=arity, replace=False).tolist() for _ in range(num_edges)]
    return build_hypergraph(edges, num_nodes=n)


def balance_cap(n: int, k: int, eps: float = 0.05) -> int:
    return int(math.ceil((1.0 + eps) * n / k - 1e-9))


def optimal_balanced_cut(h: Hypergraph, k: int, eps: float = 0.05) -> int:
    """Exhaustive minimum cut over every balanced labeling. Exponential."""
    n = h.num_nodes
    cap = balance_cap(n, k, eps)
    best = None
    for labels in itertools.product(range(k), repeat=n):
        counts = [0] * k
        for c in labels:
            counts[c] += 1
        if max(counts) > cap:
            continue
        value = recount_cut(h, labels)
        if best is None or value < best:
            best = value
    assert best is not None, "no balanced labeling exists"
    return best


def naive_omega(kind: str, rows: list[list[float]]) -> list[float]:
    d = len(rows[0])
    out = []
    for j in range(d):
        col = [r[j] for r in rows]
        if kind == "mean":
            out.append(sum(col) / len(col))
        elif kind == "var":
            mu = sum(col) / len(col)
            out.append(sum((x - mu) ** 2 for x in col) / len(col))
        elif kind == "minmax":
            out.append(max(col) - min(col))
        else:
            raise ValueError(kind)
    return out


def naive_set_groups(sets) -> dict[int, list[tuple[int, list[int]]]]:
    """Each set's position and sorted distinct members, grouped by size."""
    groups: dict[int, list[tuple[int, list[int]]]] = {}
    for t, s in enumerate(sets):
        members = sorted(set(int(v) for v in s))
        groups.setdefault(len(members), []).append((t, members))
    return groups


def naive_e2n(h: Hypergraph, edge_feats, node_x) -> np.ndarray:
    """Mean over incident edges, then the node tag, all by explicit loops."""
    edge_feats = np.asarray(edge_feats, dtype=np.float64)
    node_x = np.asarray(node_x, dtype=np.float64)
    d_e = edge_feats.shape[1]
    rows = []
    for v, inc in enumerate(naive_incidence(h)):
        agg = [0.0] * d_e
        for e in inc:
            for j in range(d_e):
                agg[j] += edge_feats[e, j]
        if inc:
            agg = [a / len(inc) for a in agg]
        rows.append(agg + node_x[v].tolist())
    return np.asarray(rows, dtype=np.float64)


def naive_n2e(weight, activation, kind, node_feats, sets, bilinear) -> np.ndarray:
    """Scalar-loop reference for the trainable set-summary layer."""
    weight = np.asarray(weight, dtype=np.float64)
    node_feats = np.asarray(node_feats, dtype=np.float64)
    out = []
    for s in sets:
        uniq = sorted(set(int(v) for v in s))
        z = naive_omega(kind, [node_feats[v].tolist() for v in uniq])
        if bilinear:
            z = [zi * zj for zi in z for zj in z]
        row = []
        for i in range(weight.shape[0]):
            acc = 0.0
            for j in range(weight.shape[1]):
                acc += weight[i, j] * z[j]
            row.append(max(acc, 0.0) if activation == "relu" else acc)
        out.append(row)
    return np.asarray(out, dtype=np.float64)


def loop_affine_forward(weight, z, bilinear) -> np.ndarray:
    """The layer's linear map, with the bilinear lift one output column at
    a time: z_t^T M_j z_t with M_j = weight[j] viewed as d x d."""
    if not bilinear:
        return z @ weight.T
    t, d = z.shape
    pre = np.empty((t, weight.shape[0]), dtype=np.float64)
    for j in range(weight.shape[0]):
        mj = weight[j].reshape(d, d)
        pre[:, j] = np.einsum("ti,ti->t", z @ mj, z)
    return pre


def gather_aggregate(incidence, deg, edge_features, node_x, agg):
    """Edge-to-node aggregation with the node tags joined on by
    concatenation, over edge rows gathered to the incidence's columns."""
    from hyperconv.convolution import HARMONIC_EPS

    if agg == "mean":
        inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        agg_part = (incidence @ edge_features) * inv_deg[:, None]
        aux = inv_deg
    else:
        recip = 1.0 / (edge_features + HARMONIC_EPS)
        s = incidence @ recip
        agg_part = np.where(s != 0.0, deg[:, None] / np.where(s != 0.0, s, 1.0), 0.0)
        aux = (deg, s, recip)
    return np.concatenate([agg_part, node_x], axis=1), aux


def block_reduce(batch, kind, feats):
    """``_SetBatch.reduce``, with mean taken over each size group's
    (cnt, size, d) block of member rows."""
    if kind != "mean":
        return batch.reduce(kind, feats)
    out = np.empty((batch.count, feats.shape[1]), dtype=np.float64)
    for pos, ids in batch.groups.values():
        out[pos] = feats[ids].mean(axis=1)
    return out, {size: () for size in batch.groups}


def gather_e2e_forward(layers, kind, h, edge_init, node_x, targets, bilinear, agg):
    """``e2e_forward`` whose layer 1 copies its field's rows of
    ``edge_init`` and aggregates them over renumbered columns, and whose
    mean pooling reduces member blocks: the oracle for the in-place
    reads."""
    from hyperconv.convolution import E2ECache, _act, _affine_forward, _flat_sets, _rows, _SetBatch

    layer1, layer2 = layers
    batch2 = _SetBatch(*_flat_sets(targets))
    nodes2 = batch2.localize(h.num_nodes)
    inc2, needed, deg2 = _rows(h, nodes2)
    starts = h.edge_ptr[needed]
    batch1 = _SetBatch(h.pins, starts, h.edge_ptr[needed + 1] - starts)
    nodes1 = batch1.localize(h.num_nodes)
    inc1, edges1, deg1 = _rows(h, nodes1)
    nf1, _ = gather_aggregate(inc1, deg1, edge_init[edges1], node_x[nodes1], agg)
    z1, _ = block_reduce(batch1, kind, nf1)
    pre1 = _affine_forward(layer1.weight, z1, bilinear)
    nf2, aux2 = gather_aggregate(inc2, deg2, _act(pre1, layer1.activation), node_x[nodes2], agg)
    z2, red2_cache = block_reduce(batch2, kind, nf2)
    pre2 = _affine_forward(layer2.weight, z2, bilinear)
    cache = E2ECache(kind=kind, bilinear=bilinear, agg=agg, layers=tuple(layers),
                     needed_edges=needed, z1=z1, pre1=pre1, inc2=inc2, e2n2_aux=aux2,
                     batch2=batch2, red2_cache=red2_cache, z2=z2, pre2=pre2)
    return _act(pre2, layer2.activation), cache


def naive_sample_negative(h: Hypergraph, edge: int, rng: np.random.Generator):
    """``sample_negative`` drawing its fills from the explicit complement of
    the edge: the same draws, so the same sample and the same generator
    state afterwards."""
    from hyperconv.training import NegativeSample, SamplingError

    members = h.edge_members[edge]
    size = len(members)
    if h.num_nodes <= size:
        raise ValueError(f"edge {edge} spans every node; nothing to swap in")
    keep = math.ceil(size / 2)
    outside = np.setdiff1d(np.arange(h.num_nodes), members)
    if outside.size < size - keep:
        raise ValueError(
            f"edge {edge}: only {outside.size} nodes outside, need {size - keep}"
        )
    existing = frozenset(frozenset(m) for m in h.edge_members)
    members_arr = np.asarray(members)
    for _ in range(100):
        kept = rng.choice(members_arr, size=keep, replace=False)
        fill = rng.choice(outside, size=size - keep, replace=False)
        cand = tuple(sorted(int(v) for v in np.concatenate([kept, fill])))
        if frozenset(cand) not in existing:
            return NegativeSample(cand, edge)
    raise SamplingError(f"edge {edge}: no novel corruption in 100 attempts")


def cross_entropy(logits, true_class: int) -> tuple[float, np.ndarray]:
    """Loss and gradient of -log softmax(logits)[true_class] for one row."""
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max()
    lse = np.log(np.exp(z).sum())
    grad = np.exp(z - lse)
    grad[true_class] -= 1.0
    return float(lse - z[true_class]), grad


def numeric_grad(fn, arr: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn()
        flat[i] = keep - step
        lo = fn()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def gradcheck_max_error(
    rng: np.random.Generator, trials: int, kinds, bilinears, step: float = 1e-6
) -> float:
    """Worst analytic-vs-central-difference error over random small models.

    Error is relative with an absolute floor at magnitude 1, so entries
    whose true gradient is numerically zero are judged by absolute
    difference instead of a 0/0 ratio.
    """
    from hyperconv.convolution import e2e_backward, e2e_forward, init_layer

    worst = 0.0
    for _ in range(trials):
        for kind in kinds:
            for bilinear in bilinears:
                h = random_hypergraph(rng, max_nodes=7, max_edges=5, max_size=4)
                k = 3
                d_e = int(rng.integers(2, 4))
                edge_init = rng.normal(size=(h.num_edges, d_e))
                node_x = rng.normal(size=(h.num_nodes, k))
                layer1 = init_layer(int(rng.integers(2, 4)), d_e + k, rng, bilinear, "relu")
                layer2 = init_layer(
                    int(rng.integers(2, 4)), layer1.out_dim + k, rng, bilinear, "identity"
                )
                layers = (layer1, layer2)
                targets = [
                    sorted(
                        rng.choice(
                            h.num_nodes,
                            size=int(rng.integers(1, min(4, h.num_nodes) + 1)),
                            replace=False,
                        ).tolist()
                    )
                    for _ in range(int(rng.integers(1, 4)))
                ]
                probe = rng.normal(size=(len(targets), layer2.out_dim))
                _, cache = e2e_forward(
                    layers, kind, h, edge_init, node_x, targets, bilinear=bilinear
                )
                analytic = e2e_backward(cache, probe)

                def loss():
                    out, _ = e2e_forward(
                        layers, kind, h, edge_init, node_x, targets, bilinear=bilinear
                    )
                    return float((out * probe).sum())

                for name, w in (("W1", layer1.weight), ("W2", layer2.weight)):
                    numeric = numeric_grad(loss, w, step)
                    scale = np.maximum(
                        1.0, np.maximum(np.abs(analytic[name]), np.abs(numeric))
                    )
                    worst = max(worst, float((np.abs(analytic[name] - numeric) / scale).max()))
    return worst


def planted_communities(
    rng: np.random.Generator,
    num_communities: int,
    nodes_per: int,
    num_edges: int,
    size_lo: int,
    size_hi: int,
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Hyperedges drawn entirely within one community each.

    Returns the member lists plus the community id of each edge.
    """
    edges = []
    homes = []
    for _ in range(num_edges):
        c = int(rng.integers(num_communities))
        pool = np.arange(c * nodes_per, (c + 1) * nodes_per)
        size = int(rng.integers(size_lo, size_hi + 1))
        edges.append(tuple(sorted(rng.choice(pool, size=size, replace=False).tolist())))
        homes.append(c)
    return edges, homes


def planted_knowledge(
    rng: np.random.Generator,
    num_communities: int = 4,
    nodes_per: int = 15,
    num_edges: int = 200,
    size: int = 3,
):
    """Knowledge hypergraph whose relation is its edge's home community.

    The mapping relation = community is realizable from cluster-derived
    features alone, so a working pipeline should recover it almost
    perfectly.
    """
    from hyperconv.hypergraph import KnowledgeHypergraph, build_hypergraph

    edges, homes = planted_communities(
        rng, num_communities, nodes_per, num_edges, size, size
    )
    n = num_communities * nodes_per
    base = build_hypergraph(edges, num_nodes=n)
    return KnowledgeHypergraph(
        base,
        homes,
        tuple(f"r{c}" for c in range(num_communities)),
        tuple(f"e{v}" for v in range(n)),
    )
