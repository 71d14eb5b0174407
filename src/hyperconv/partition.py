"""Deterministic multilevel k-way hypergraph partitioner.

The objective is the connectivity-minus-one cut: each hyperedge spanning
``lam`` distinct clusters contributes ``lam - 1``. The pipeline coarsens the
hypergraph by merging nodes along small hyperedges, seeds a balanced
partition on the coarsest level, then refines greedily at every level on
the way back up. Everything is deterministic for a fixed input.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .hypergraph import Hypergraph

MERGE_GROUP_CAP = 4


@dataclass(frozen=True)
class ClusterAssignment:
    """Node -> cluster-id mapping with its balance contract.

    Every cluster must hold at most ceil((1 + balance_epsilon) * n / k)
    nodes; ``capacity`` computes that bound.
    """

    cluster_of: np.ndarray
    k: int
    balance_epsilon: float = 0.05

    def __post_init__(self):
        arr = np.asarray(self.cluster_of, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "cluster_of", arr)
        if self.k < 1:
            raise ValueError("cluster count must be >= 1")
        if arr.size and (arr.min() < 0 or arr.max() >= self.k):
            raise ValueError("cluster id out of range")

    @property
    def num_nodes(self) -> int:
        return int(self.cluster_of.shape[0])

    def capacity(self) -> int:
        return _balance_cap(self.num_nodes, self.k, self.balance_epsilon)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.cluster_of, minlength=self.k)

    def is_balanced(self) -> bool:
        return bool(self.cluster_sizes().max(initial=0) <= self.capacity())


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening step: the smaller hypergraph plus the projection map.

    ``projection[v]`` is the coarse node absorbing fine node v; it is total
    and surjective onto the coarse node ids. ``progress`` is False when no
    merge was possible (coarse graph identical in size).
    """

    coarse: Hypergraph
    projection: np.ndarray = field(repr=False)
    progress: bool = True

    def __post_init__(self):
        arr = np.asarray(self.projection, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "projection", arr)


def _balance_cap(n: int, k: int, eps: float) -> int:
    # tiny slack keeps float noise in (1 + eps) * n / k from bumping the ceil
    return int(math.ceil((1.0 + eps) * n / k - 1e-9))


def pin_counts(h: Hypergraph, labels: np.ndarray, k: int) -> np.ndarray:
    """(edges, k) table: how many members of each edge sit in each cluster.

    The one source of per-edge cluster counts: connectivity, the cut, the
    refinement gains and majority-vote pooling all read it.
    """
    flat = np.bincount(h.pin_edge * k + labels[h.pins], minlength=h.num_edges * k)
    return flat.reshape(h.num_edges, k)


def _cut_of(counts: np.ndarray) -> int:
    """Connectivity-minus-one cut of a pin-count table."""
    return int(np.count_nonzero(counts)) - counts.shape[0]


def cut(h: Hypergraph, c: ClusterAssignment) -> int:
    """Connectivity-minus-one cut: sum over edges of (spanned clusters - 1)."""
    if c.num_nodes != h.num_nodes:
        raise ValueError(
            f"assignment covers {c.num_nodes} nodes, hypergraph has {h.num_nodes}"
        )
    return _cut_of(pin_counts(h, c.cluster_of, c.k))


def _size_order(h: Hypergraph) -> np.ndarray:
    """Edge ids in ascending (size, id) order."""
    return np.argsort(np.bincount(h.pin_edge, minlength=h.num_edges), kind="stable")


def coarsen(
    h: Hypergraph,
    node_weights: np.ndarray | None = None,
    weight_cap: int | None = None,
) -> CoarseLevel:
    """Merge nodes along hyperedges to produce a strictly smaller hypergraph.

    Hyperedges are visited in ascending (size, id) order; each edge fuses
    its still-unmatched members into merge groups of at most
    ``MERGE_GROUP_CAP`` fine nodes (and at most ``weight_cap`` total weight
    when given). Nodes left alone by every edge survive as singletons.
    Coarse ids are assigned by first appearance in fine-node order, and
    coarse edges are the projected images of fine edges with singleton
    images dropped.
    """
    n = h.num_nodes
    if node_weights is None:
        node_weights = np.ones(n, dtype=np.int64)
    group_of = np.full(n, -1, dtype=np.int64)
    next_group = 0
    for e in _size_order(h).tolist():
        pending: list[int] = []
        pending_weight = 0
        for v in h.edge_members[e]:
            if group_of[v] >= 0:
                continue
            w = int(node_weights[v])
            if pending and (
                len(pending) >= MERGE_GROUP_CAP
                or (weight_cap is not None and pending_weight + w > weight_cap)
            ):
                if len(pending) >= 2:
                    for u in pending:
                        group_of[u] = next_group
                    next_group += 1
                pending = []
                pending_weight = 0
            pending.append(v)
            pending_weight += w
        if len(pending) >= 2:
            for u in pending:
                group_of[u] = next_group
            next_group += 1

    # renumber by first appearance so coarse ids follow fine-node order
    projection = np.full(n, -1, dtype=np.int64)
    remap: dict[int, int] = {}
    n_coarse = 0
    for v in range(n):
        g = group_of[v]
        if g < 0:
            projection[v] = n_coarse
            n_coarse += 1
        else:
            if g not in remap:
                remap[g] = n_coarse
                n_coarse += 1
            projection[v] = remap[g]

    coarse_edges = []
    for members in h.edge_members:
        image = tuple(sorted(set(int(projection[v]) for v in members)))
        if len(image) >= 2:
            coarse_edges.append(image)
    coarse = Hypergraph(coarse_edges, n_coarse)
    return CoarseLevel(coarse, projection, progress=n_coarse < n)


def coarse_weights(level: CoarseLevel, node_weights: np.ndarray) -> np.ndarray:
    """Total fine weight carried by each coarse node."""
    return np.bincount(
        level.projection, weights=node_weights, minlength=level.coarse.num_nodes
    ).astype(np.int64)


class _RefineState:
    """Per-edge cluster counts plus cluster loads for one refinement run."""

    def __init__(self, h: Hypergraph, labels: np.ndarray, k: int, weights: np.ndarray):
        self.h = h
        self.k = k
        self.labels = labels
        self.weights = weights
        self.counts = pin_counts(h, labels, k)
        self.loads = np.bincount(labels, weights=weights, minlength=k).astype(np.int64)

    def _edges_of(self, v: int) -> np.ndarray:
        return self.h.node_edges[self.h.node_ptr[v]:self.h.node_ptr[v + 1]]

    def gains(self, v: int) -> np.ndarray:
        """Cut reduction for moving v into each cluster (own cluster -> 0)."""
        a = self.labels[v]
        inc = self._edges_of(v)
        if not inc.size:
            return np.zeros(self.k, dtype=np.int64)
        rows = self.counts[inc]
        leave = int((rows[:, a] == 1).sum())
        enter = (rows == 0).sum(axis=0)
        g = leave - enter
        g[a] = 0
        return g

    def apply(self, v: int, b: int) -> None:
        a = self.labels[v]
        inc = self._edges_of(v)
        self.counts[inc, a] -= 1
        self.counts[inc, b] += 1
        self.loads[a] -= self.weights[v]
        self.loads[b] += self.weights[v]
        self.labels[v] = b


def _fm_pass(state: _RefineState, cap: int) -> int:
    """One greedy pass: apply positive-gain, balance-feasible moves.

    The move with the largest cut reduction goes first; ties break on the
    lower node id, then the lower target cluster. Each node moves at most
    once per pass. Returns the number of moves applied.
    """
    h, k = state.h, state.k
    locked = np.zeros(h.num_nodes, dtype=bool)
    heap: list[tuple[int, int, int]] = []
    blocked: dict[int, list[tuple[int, int, int]]] = {}

    def push_moves(v: int) -> None:
        if locked[v]:
            return
        g = state.gains(v)
        a = state.labels[v]
        for b in range(k):
            if b != a and g[b] > 0:
                heapq.heappush(heap, (-int(g[b]), v, b))

    for v in range(h.num_nodes):
        push_moves(v)

    moves = 0
    while heap:
        neg_g, v, b = heapq.heappop(heap)
        if locked[v] or state.labels[v] == b:
            continue
        cur = int(state.gains(v)[b])
        if cur <= 0 or cur != -neg_g:
            continue  # stale entry; a fresh one was pushed when gains changed
        if state.loads[b] + state.weights[v] > cap:
            blocked.setdefault(b, []).append((neg_g, v, b))
            continue
        a = int(state.labels[v])
        state.apply(v, b)
        locked[v] = True
        moves += 1
        touched = set()
        for e in h.node_incidence[v]:
            touched.update(h.edge_members[e])
        touched.discard(v)
        for u in sorted(touched):
            push_moves(u)
        # cluster a lost weight: retry moves it previously blocked
        for entry in blocked.pop(a, []):
            heapq.heappush(heap, entry)
    return moves


def _refine(
    h: Hypergraph,
    labels: np.ndarray,
    k: int,
    weights: np.ndarray,
    cap: int,
    max_passes: int,
    pass_cuts: list[int] | None = None,
) -> np.ndarray:
    state = _RefineState(h, labels, k, weights)
    for _ in range(max_passes):
        if _fm_pass(state, cap) == 0:
            break
        if pass_cuts is not None:
            pass_cuts.append(_cut_of(state.counts))
    return state.labels


def fm_refine(
    h: Hypergraph,
    c: ClusterAssignment,
    max_passes: int = 8,
    pass_cuts: list[int] | None = None,
) -> ClusterAssignment:
    """Greedy move-based refinement; never increases the cut.

    ``pass_cuts``, when given a list, receives the cut value after each
    completed pass.
    """
    if c.num_nodes != h.num_nodes:
        raise ValueError("assignment does not match hypergraph")
    if not c.is_balanced():
        raise ValueError("input assignment violates the balance bound")
    if c.k == 1:
        return c
    labels = c.cluster_of.copy()
    weights = np.ones(h.num_nodes, dtype=np.int64)
    _refine(h, labels, c.k, weights, c.capacity(), max_passes, pass_cuts)
    return ClusterAssignment(labels, c.k, c.balance_epsilon)


def _initial_partition(weights: np.ndarray, k: int, cap: int) -> np.ndarray:
    """Round-robin over nodes sorted by descending weight (ties: id order).

    A round-robin slot already at capacity falls back to the lightest
    feasible cluster so the balance bound holds unconditionally.
    """
    n = len(weights)
    order = sorted(range(n), key=lambda v: (-int(weights[v]), v))
    labels = np.zeros(n, dtype=np.int64)
    loads = np.zeros(k, dtype=np.int64)
    for i, v in enumerate(order):
        b = i % k
        if loads[b] + weights[v] > cap:
            feasible = [c for c in range(k) if loads[c] + weights[v] <= cap]
            b = min(feasible, key=lambda c: (int(loads[c]), c))
        labels[v] = b
        loads[b] += weights[v]
    return labels


def _bfs_order(h: Hypergraph) -> list[int]:
    """Nodes in breadth-first discovery order, components by lowest id."""
    seen = np.zeros(h.num_nodes, dtype=bool)
    order: list[int] = []
    for start in range(h.num_nodes):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for e in h.node_incidence[v]:
                for u in h.edge_members[e]:
                    if not seen[u]:
                        seen[u] = True
                        queue.append(u)
    return order


def _edge_order(h: Hypergraph) -> list[int]:
    """Nodes by first appearance scanning edges in ascending (size, id)."""
    order: list[int] = []
    seen = np.zeros(h.num_nodes, dtype=bool)
    for e in _size_order(h).tolist():
        for v in h.edge_members[e]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    for v in range(h.num_nodes):
        if not seen[v]:
            order.append(v)
    return order


def _packed_partition(
    order: list[int], weights: np.ndarray, k: int, cap: int
) -> np.ndarray:
    """Fill clusters contiguously along the order up to an even quota.

    Keeps connected stretches of the order together, unlike round-robin.
    """
    labels = np.zeros(len(weights), dtype=np.int64)
    loads = np.zeros(k, dtype=np.int64)
    quota = float(weights.sum()) / k
    cl = 0
    for v in order:
        w = int(weights[v])
        if cl < k - 1 and loads[cl] > 0 and loads[cl] + w > quota:
            cl += 1
        b = cl
        if loads[b] + w > cap:
            feasible = [c for c in range(k) if loads[c] + w <= cap]
            b = min(feasible, key=lambda c: (int(loads[c]), c))
        labels[v] = b
        loads[b] += w
    return labels


_EXACT_NODE_LIMIT = 16
_EXACT_PIN_LIMIT = 512


def _exact_bipartition(
    h: Hypergraph, weights: np.ndarray, cap: int
) -> np.ndarray | None:
    """Optimal balanced 2-way split by vectorized enumeration.

    Only called for tiny coarsest levels, where 2^(n-1) assignments fit
    comfortably in memory. Node 0 is pinned to cluster 0 (the objective
    and the balance bound are label-symmetric). Returns None when no
    enumerated assignment satisfies the balance bound.
    """
    n = h.num_nodes
    count = 1 << (n - 1)
    codes = np.arange(count, dtype=np.uint32)
    labels = np.zeros((count, n), dtype=np.int8)
    labels[:, 1:] = (codes[:, None] >> np.arange(n - 1, dtype=np.uint32)) & 1
    loads1 = labels @ weights.astype(np.int64)
    feasible = (loads1 <= cap) & (int(weights.sum()) - loads1 <= cap)
    if not feasible.any():
        return None
    cuts = np.zeros(count, dtype=np.int64)
    for members in h.edge_members:
        s = labels[:, list(members)].sum(axis=1, dtype=np.int64)
        cuts += (s > 0) & (s < len(members))
    cuts[~feasible] = np.iinfo(np.int64).max
    return labels[int(cuts.argmin())].astype(np.int64)


def partition(
    h: Hypergraph,
    k: int,
    balance_epsilon: float = 0.05,
    max_passes: int = 8,
) -> ClusterAssignment:
    """Full multilevel flow: coarsen, seed, uncoarsen with refinement.

    Coarsening stops once the level has at most max(20 * k, 200) nodes or
    no merge makes progress. The coarsest level is seeded with several
    deterministic candidates (weight round-robin plus two packed
    connectivity orders, plus exhaustive search for tiny 2-way cases);
    each is refined and the best cut wins. The result is balanced and
    identical across runs for fixed inputs.
    """
    n = h.num_nodes
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds node count {n}")
    if k == 1:
        return ClusterAssignment(np.zeros(n, dtype=np.int64), 1, balance_epsilon)

    cap = _balance_cap(n, k, balance_epsilon)
    # merge groups heavier than the cap slack could break round-robin balance
    weight_cap = max(MERGE_GROUP_CAP, cap - int(math.ceil(n / k)))
    floor = max(20 * k, 200)

    levels: list[CoarseLevel] = []
    cur = h
    weights = np.ones(n, dtype=np.int64)
    weight_stack = [weights]
    while cur.num_nodes > floor:
        level = coarsen(cur, weight_stack[-1], weight_cap)
        if not level.progress:
            break
        levels.append(level)
        weight_stack.append(coarse_weights(level, weight_stack[-1]))
        cur = level.coarse

    # several deterministic seedings compete at the coarsest level; greedy
    # refinement cannot escape a bad basin on its own
    wts = weight_stack[-1]
    candidates = [
        _initial_partition(wts, k, cap),
        _packed_partition(_bfs_order(cur), wts, k, cap),
        _packed_partition(_edge_order(cur), wts, k, cap),
    ]
    if (
        k == 2
        and cur.num_nodes <= _EXACT_NODE_LIMIT
        and sum(len(m) for m in cur.edge_members) <= _EXACT_PIN_LIMIT
    ):
        exact = _exact_bipartition(cur, wts, cap)
        if exact is not None:
            candidates.append(exact)

    labels = None
    best = None
    for cand in candidates:
        refined = _refine(cur, cand, k, wts, cap, max_passes)
        value = _cut_of(pin_counts(cur, refined, k))
        if best is None or value < best:
            labels, best = refined, value

    for i in range(len(levels) - 1, -1, -1):
        labels = labels[levels[i].projection]
        fine = h if i == 0 else levels[i - 1].coarse
        labels = _refine(fine, labels, k, weight_stack[i], cap, max_passes)
    return ClusterAssignment(labels, k, balance_epsilon)
