"""Deterministic multilevel k-way hypergraph partitioner.

The objective is the connectivity-minus-one cut: each hyperedge spanning
``lam`` distinct clusters contributes ``lam - 1``. The pipeline coarsens the
hypergraph by merging nodes along small hyperedges, seeds a balanced
partition on the coarsest level, then refines greedily at every level on
the way back up. Everything is deterministic for a fixed input.

Refinement reads its move gains from a gain table, ``_RefineState.gain``:
an (nodes, k) array of the cut reduction for moving each node into each
cluster. It is counted once per refinement run and then updated on each
move from the change in the pin counts of the mover's edges, as in the
direct k-way FM of KaHyPar (Akhremtsev et al., ALENEX 2017) and hMETIS.

The move order is the partitioner's contract: each step of a pass applies
the least (-gain, node, target cluster) over unlocked nodes, positive
gains and targets with room for the node's weight, and each node moves at
most once per pass. Because the table is exact after every move, that
move is read straight off it: the first maximum of the masked table. The
priority queue of Fiduccia and Mattheyses (DAC 1982) is not needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hypergraph import Hypergraph, _segments

MERGE_GROUP_CAP = 4
# refinement passes per level; a pass that moves nothing ends them early
MAX_PASSES = 8


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
        arr = np.array(self.cluster_of, dtype=np.int64)  # a copy: the caller's stays writeable
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
        arr = np.array(self.projection, dtype=np.int64)
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
    return np.argsort(np.diff(h.edge_ptr), kind="stable")


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
    weights = node_weights.tolist()
    pins, ptr = h.pins.tolist(), h.edge_ptr.tolist()
    group_of = [-1] * n
    next_group = 0
    for e in _size_order(h).tolist():
        pending: list[int] = []
        pending_weight = 0
        for v in pins[ptr[e]:ptr[e + 1]]:
            if group_of[v] >= 0:
                continue
            w = weights[v]
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

    # renumber by first appearance so coarse ids follow fine-node order;
    # a singleton v keys as next_group + v, apart from every group
    group = np.array(group_of, dtype=np.int64)
    key = np.where(group < 0, next_group + np.arange(n), group)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    projection = rank[inverse]
    n_coarse = int(first.size)

    # one sort of (edge, coarse node) codes lists each edge's image in turn;
    # a sort plus a neighbour mask (codes are >= 0), where np.unique hashes
    codes = np.sort(h.pin_edge * n_coarse + projection[h.pins])
    codes = codes[np.diff(codes, prepend=-1) != 0]
    image_edge = codes // n_coarse
    sizes = np.bincount(image_edge, minlength=h.num_edges)
    kept = sizes[image_edge] >= 2
    coarse_ptr = np.concatenate([[0], np.cumsum(sizes[sizes >= 2])])
    coarse = Hypergraph(coarse_ptr, codes[kept] % n_coarse, n_coarse)
    return CoarseLevel(coarse, projection, progress=n_coarse < n)


def coarse_weights(level: CoarseLevel, node_weights: np.ndarray) -> np.ndarray:
    """Total fine weight carried by each coarse node."""
    return np.bincount(
        level.projection, weights=node_weights, minlength=level.coarse.num_nodes
    ).astype(np.int64)


class _RefineState:
    """Per-edge cluster counts, cluster loads and the gain table of one
    refinement run.

    ``gain[v, c]`` is the cut reduction for moving v into cluster c (0 in
    v's own column). It is kept exact: a move changes only the rows of the
    members of the mover's edges, and ``apply`` updates those.
    """

    def __init__(self, h: Hypergraph, labels: np.ndarray, k: int, weights: np.ndarray):
        self.h = h
        self.k = k
        self.labels = labels
        self.weights = weights
        self.counts = pin_counts(h, labels, k)
        self.loads = np.bincount(labels, weights=weights, minlength=k).astype(np.int64)
        # a node's gain into c is the number of its edges where it is the
        # only member of its own cluster, minus the number of its edges with
        # no member in c (its degree minus the edges with some member in c)
        n = h.num_nodes
        degree = np.diff(h.node_ptr)
        owner = np.repeat(np.arange(n), degree)
        rows = self.counts[h.node_edges]
        leave = np.bincount(owner[rows[np.arange(owner.size), labels[owner]] == 1],
                            minlength=n)
        r, c = np.nonzero(rows)
        present = np.bincount(owner[r] * k + c, minlength=n * k).reshape(n, k)
        self.gain = (leave - degree)[:, None] + present
        self.gain[np.arange(n), labels] = 0

    def apply(self, v: int, b: int) -> np.ndarray:
        """Move v into cluster b. Returns the other members of its edges,
        with repeats: with v, the only nodes whose gain rows the move can
        change."""
        a = self.labels[v]
        inc = self.h.node_edges[self.h.node_ptr[v]:self.h.node_ptr[v + 1]]
        pos, sizes = _segments(self.h.edge_ptr, inc)
        u = self.h.pins[pos]
        other = u != v
        u, edge = u[other], np.repeat(inc, sizes)[other]
        self.counts[inc, a] -= 1
        self.counts[inc, b] += 1
        self.loads[a] -= self.weights[v]
        self.loads[b] += self.weights[v]
        self.labels[v] = b
        # only counts[e, a] and counts[e, b] moved, each by one: u's leave
        # term follows its own cluster's count, its column a loses the edges
        # a left and its column b gains the edges b entered
        lab = self.labels[u]
        new_own = self.counts[edge, lab]
        old_own = new_own + (lab == a) - (lab == b)
        sole = (new_own == 1).astype(np.int64) - (old_own == 1)
        np.add.at(self.gain, u, sole[:, None])
        np.subtract.at(self.gain, (u, a), self.counts[edge, a] == 0)
        np.add.at(self.gain, (u, b), self.counts[edge, b] == 1)
        self.gain[u, self.labels[u]] = 0
        # v's own row, counted as in ``__init__`` from its edges' counts
        rows = self.counts[inc]
        self.gain[v] = np.count_nonzero(rows[:, b] == 1) - np.count_nonzero(rows == 0, axis=0)
        self.gain[v, b] = 0
        return u


def _fm_pass(state: _RefineState, cap: int) -> int:
    """One greedy pass: apply positive-gain, balance-feasible moves.

    Each step applies the least (-gain, v, b) over unlocked v, b not v's
    cluster, gain > 0 and ``loads[b] + weights[v] <= cap``: the largest cut
    reduction first, ties to the lower node id, then the lower target
    cluster. Each node moves at most once per pass. Returns the number of
    moves applied.

    A step scans the rows of the ``live`` nodes, unlocked with some
    positive gain, in ascending order, so the first maximum of the masked
    rows is that least move. A move changes only the rows of v and of the
    nodes ``apply`` returns, so only theirs need ``live`` re-read.
    """
    gain, weights = state.gain, state.weights
    locked = np.zeros(state.h.num_nodes, dtype=bool)
    live = (gain > 0).any(axis=1)
    moves = 0
    while live.any():
        rows = np.flatnonzero(live)
        # a target without room reads 0, below any positive gain
        g = gain[rows]
        g *= weights[rows, None] <= cap - state.loads
        best = int(g.argmax())
        if g.flat[best] <= 0:
            break
        v, b = int(rows[best // state.k]), best % state.k
        u = state.apply(v, b)
        locked[v] = True
        live[v] = False
        live[u] = (gain[u] > 0).any(axis=1) & ~locked[u]
        moves += 1
    return moves


def _refine(
    h: Hypergraph,
    labels: np.ndarray,
    k: int,
    weights: np.ndarray,
    cap: int,
    pass_cuts: list[int] | None = None,
) -> np.ndarray:
    state = _RefineState(h, labels, k, weights)
    for _ in range(MAX_PASSES):
        if _fm_pass(state, cap) == 0:
            break
        if pass_cuts is not None:
            pass_cuts.append(_cut_of(state.counts))
    return state.labels


def fm_refine(
    h: Hypergraph,
    c: ClusterAssignment,
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
    _refine(h, labels, c.k, weights, c.capacity(), pass_cuts)
    return ClusterAssignment(labels, c.k, c.balance_epsilon)


def _initial_partition(weights: np.ndarray, k: int) -> np.ndarray:
    """Round-robin over nodes sorted by descending weight (ties: id order).

    No cluster then outweighs the lightest by more than one node, so the
    balance bound holds while no node outweighs max(1, cap - ceil(total
    weight / k)); ``partition`` caps merge groups at that slack.
    """
    labels = np.empty(len(weights), dtype=np.int64)
    labels[np.argsort(-weights, kind="stable")] = np.arange(len(weights)) % k
    return labels


def _bfs_order(h: Hypergraph) -> list[int]:
    """Nodes in breadth-first discovery order, components by lowest id."""
    node_ptr, node_edges = h.node_ptr.tolist(), h.node_edges.tolist()
    edge_ptr, pins = h.edge_ptr.tolist(), h.pins.tolist()
    seen = [False] * h.num_nodes
    order: list[int] = []  # the discovered nodes; those from ``head`` on are queued
    head = 0
    for start in range(h.num_nodes):
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        while head < len(order):
            v = order[head]
            head += 1
            for e in node_edges[node_ptr[v]:node_ptr[v + 1]]:
                for u in pins[edge_ptr[e]:edge_ptr[e + 1]]:
                    if not seen[u]:
                        seen[u] = True
                        order.append(u)
    return order


def _edge_order(h: Hypergraph) -> list[int]:
    """Nodes by first appearance scanning edges in ascending (size, id),
    then the nodes in no edge, by id."""
    pos, _ = _segments(h.edge_ptr, _size_order(h))
    scan = np.concatenate([h.pins[pos], np.arange(h.num_nodes)])
    _, first = np.unique(scan, return_index=True)
    return scan[np.sort(first)].tolist()


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
    ptr = h.edge_ptr.tolist()
    for a, b in zip(ptr, ptr[1:]):
        s = labels[:, h.pins[a:b]].sum(axis=1, dtype=np.int64)
        cuts += (s > 0) & (s < b - a)
    cuts[~feasible] = np.iinfo(np.int64).max
    return labels[int(cuts.argmin())].astype(np.int64)


def partition(
    h: Hypergraph,
    k: int,
    balance_epsilon: float = 0.05,
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
    if not balance_epsilon >= 0:
        raise ValueError(f"balance_epsilon must be >= 0, got {balance_epsilon}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds node count {n}")
    if k == 1:
        return ClusterAssignment(np.zeros(n, dtype=np.int64), 1, balance_epsilon)

    cap = _balance_cap(n, k, balance_epsilon)
    # no merge group outweighs the cap slack, so round-robin seeding stays
    # balanced; a slack below 2 allows no merge and refines flat
    weight_cap = cap - int(math.ceil(n / k))
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
        _initial_partition(wts, k),
        _packed_partition(_bfs_order(cur), wts, k, cap),
        _packed_partition(_edge_order(cur), wts, k, cap),
    ]
    if (
        k == 2
        and cur.num_nodes <= _EXACT_NODE_LIMIT
        and cur.pins.size <= _EXACT_PIN_LIMIT
    ):
        exact = _exact_bipartition(cur, wts, cap)
        if exact is not None:
            candidates.append(exact)

    labels = None
    best = None
    for cand in candidates:
        refined = _refine(cur, cand, k, wts, cap)
        value = _cut_of(pin_counts(cur, refined, k))
        if best is None or value < best:
            labels, best = refined, value

    for i in range(len(levels) - 1, -1, -1):
        labels = labels[levels[i].projection]
        fine = h if i == 0 else levels[i - 1].coarse
        labels = _refine(fine, labels, k, weight_stack[i], cap)
    return ClusterAssignment(labels, k, balance_epsilon)
