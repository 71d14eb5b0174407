"""Deterministic multilevel k-way hypergraph partitioner.

The objective is the connectivity-minus-one cut: each hyperedge spanning
``lam`` distinct clusters contributes ``lam - 1``. The pipeline coarsens the
hypergraph by merging nodes along small hyperedges, seeds a balanced
partition on the coarsest level, then refines greedily at every level on
the way back up. Everything is deterministic for a fixed input.

Refinement reads its move gains from a gain table kept exact after every
move, as in the direct k-way FM of KaHyPar (Akhremtsev et al., ALENEX
2017) and hMETIS.

The move order is the partitioner's contract: each step of a pass applies
the least (-gain, node, target cluster) over unlocked nodes, positive
gains and targets with room for the node's weight, and each node moves at
most once per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hypergraph import Hypergraph, _first_non_integer, _segments

MERGE_GROUP_CAP = 4
# refinement passes per level; a pass that moves nothing ends them early
MAX_PASSES = 8
# see ``_Neighbourhoods``
_PAIRS_PER_NODE = 768


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
        if np.ndim(self.cluster_of) != 1:
            raise ValueError(f"cluster_of has shape {np.shape(self.cluster_of)}, not one dimension")
        bad = _first_non_integer(self.cluster_of)
        if bad is not None:
            raise ValueError(f"cluster_of[{bad[0]}] is {bad[1]!r}, not an integer")
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


def _balance_cap(n: int, k: int, eps: float) -> int:
    bound = (1.0 + eps) * n / k
    if not math.isfinite(bound):
        raise ValueError(f"balance_epsilon {eps} gives a cluster bound of {bound}, not finite")
    # tiny slack keeps float noise in (1 + eps) * n / k from bumping the ceil
    return int(math.ceil(bound - 1e-9))


def pin_counts(h: Hypergraph, labels: np.ndarray, k: int, start: int = 0,
               stop: int | None = None) -> np.ndarray:
    """(edges, k) table: how many members of each edge sit in each cluster;
    with ``start`` and ``stop``, the rows of edges ``start:stop`` only.

    The one source of per-edge cluster counts: connectivity, the cut, the
    refinement gains and majority-vote pooling all read it.
    """
    stop = h.num_edges if stop is None else stop
    lo, hi = h.edge_ptr[start], h.edge_ptr[stop]
    codes = h.pin_edge[lo:hi] * k + labels[h.pins[lo:hi]]
    if start:
        codes -= start * k
    return np.bincount(codes, minlength=(stop - start) * k).reshape(stop - start, k)


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
    h: Hypergraph, node_weights: np.ndarray, weight_cap: int
) -> tuple[Hypergraph, np.ndarray, np.ndarray]:
    """Merge nodes along hyperedges into a hypergraph with no more nodes.

    Hyperedges are visited in ascending (size, id) order; each edge fuses
    its still-unmatched members into merge groups of at most
    ``MERGE_GROUP_CAP`` fine nodes and at most ``weight_cap`` total weight.
    Nodes left alone by every edge survive as singletons. Coarse ids are
    assigned by first appearance in fine-node order, and coarse edges are
    the projected images of fine edges with singleton images dropped.

    Returns the coarse hypergraph; the read-only projection, whose entry v
    is the coarse node absorbing fine node v (total and onto the coarse
    ids); and each coarse node's total fine weight. The node count stays
    the same exactly when nothing merged.
    """
    n = h.num_nodes
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
            if pending and (len(pending) >= MERGE_GROUP_CAP or pending_weight + w > weight_cap):
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
    projection.flags.writeable = False
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
    carried = np.bincount(projection, weights=node_weights, minlength=n_coarse)
    return coarse, projection, carried.astype(np.int64)


class _Neighbourhoods:
    """The move neighbourhoods of one hypergraph's nodes, gathered as moves
    ask for them; the refinement runs on one graph can share them.

    ``self[v]`` is v, then the other members of its edges, each once and
    ascending; and for each (edge, other member) pair of v's edges, the
    member's place in that list and the edge's place among v's edges.

    Nodes are gathered one at a time, each on its first move, until
    ``_PAIRS_PER_NODE`` pairs per node gathered reach Σ|e|(|e| - 1), the
    pairs of every node; then every node's are gathered at once.
    """

    def __init__(self, h: Hypergraph):
        self.h = h
        sizes = np.diff(h.edge_ptr)
        self._pairs = int((sizes * (sizes - 1)).sum())
        self._node_ptr = h.node_ptr.tolist()
        self._one: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._every = None

    def __getitem__(self, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._every is None:
            if v in self._one:
                return self._one[v]
            if len(self._one) * _PAIRS_PER_NODE < self._pairs:
                inc = self.h.node_edges[self._node_ptr[v]:self._node_ptr[v + 1]]
                pos, sizes = _segments(self.h.edge_ptr, inc)
                member = self.h.pins[pos]
                other = member != v
                rows, near = np.unique(member[other], return_inverse=True)
                slot = np.repeat(np.arange(inc.size), sizes)[other]
                self._one[v] = np.concatenate([[v], rows]), near + 1, slot
                return self._one[v]
            self._every = self._gather_every()
        near_ptr, near, pair_ptr, pair_near, pair_slot = self._every
        pairs = slice(pair_ptr[v], pair_ptr[v + 1])
        return near[near_ptr[v]:near_ptr[v + 1]], pair_near[pairs], pair_slot[pairs]

    def _gather_every(self) -> tuple[list, np.ndarray, list, np.ndarray, np.ndarray]:
        """Every node's neighbourhood, as CSR: v's list is
        ``near[near_ptr[v]:near_ptr[v + 1]]``, and its pairs' places are
        segmented by ``pair_ptr``. The pointers are lists, for slicing."""
        h, n = self.h, self.h.num_nodes
        degree = np.diff(h.node_ptr)
        owner = np.repeat(np.arange(n), degree)
        pos, sizes = _segments(h.edge_ptr, h.node_edges)
        incidence = np.repeat(np.arange(owner.size), sizes)
        mover, member = owner[incidence], h.pins[pos]
        other = member != mover
        mover = mover[other]
        slot = incidence[other] - h.node_ptr[mover]
        # one sort of (node, member, slot) codes lists each node's pairs by
        # member; each node keeps its place, so ``mover`` still holds
        bits = int(degree.max(initial=0)).bit_length()
        key = np.sort((mover * n + member[other]) << bits | slot)
        pair = key >> bits
        first = np.flatnonzero(np.diff(pair, prepend=-1))
        # the r-th distinct (node, member) pair, of node m, sits at r + m + 1
        near_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(mover[first], minlength=n) + 1, out=near_ptr[1:])
        near = np.empty(near_ptr[-1], dtype=np.int64)
        near[near_ptr[:-1]] = np.arange(n)
        near[np.arange(first.size) + mover[first] + 1] = pair[first] - mover[first] * n
        run = np.zeros(key.size, dtype=np.int64)
        run[first] = 1
        pair_near = np.cumsum(run) + mover - near_ptr[mover]
        pair_ptr = np.concatenate([[0], np.cumsum(sizes - 1)])[h.node_ptr]
        return (near_ptr.tolist(), near, pair_ptr.tolist(), pair_near,
                key & ((1 << bits) - 1))


class _RefineState:
    """Per-edge cluster counts, cluster loads, the gain table and each
    cluster's best move in, for one refinement run.

    ``gain[v, c]`` is the cut reduction for moving v into cluster c (0 in
    v's own column). It is kept exact: a move changes only the rows of the
    members of the mover's edges, and ``apply`` updates those.

    ``live`` is the gain table with the rows of locked nodes at 0, stored
    by column. ``top[c]`` is the first maximum of column c of ``live`` over
    the nodes with room in c (``loads[c] + weights[v] <= cap``), as the
    score ``gain * n - v`` of gain and node: the larger score is the larger
    gain, then the lower node. A score of 0 or less is no move. A move
    compares its changed rows with each column's top, and rescans a column
    whose top fell or whose room changed for some weight.

    ``neighbourhoods``, gathered as moves ask for them, may be shared with
    the other runs on ``h``.
    """

    def __init__(self, h: Hypergraph, labels: np.ndarray, k: int, weights: np.ndarray,
                 cap: int, neighbourhoods: _Neighbourhoods | None = None):
        self.h = h
        self.k = k
        self.labels = labels
        self.weights = weights
        self.cap = cap
        counts = pin_counts(h, labels, k)
        self.loads = np.bincount(labels, weights=weights, minlength=k).astype(np.int64)
        # a node's gain into c is the number of its edges where it is the
        # only member of its own cluster, minus the number of its edges with
        # no member in c (its degree minus the edges with some member in c)
        n = h.num_nodes
        degree = np.diff(h.node_ptr)
        owner = np.repeat(np.arange(n), degree)
        leave = np.bincount(owner[counts[h.node_edges, labels[owner]] == 1], minlength=n)
        incidence = sp.csr_matrix((np.ones(owner.size, dtype=np.int64), h.node_edges,
                                   h.node_ptr), shape=(n, h.num_edges))
        self.gain = (leave - degree)[:, None] + incidence @ (counts > 0)
        self.gain[np.arange(n), labels] = 0
        # a move reads and writes two whole columns of the counts
        self.counts = np.asfortranarray(counts)
        self._node_ptr = h.node_ptr.tolist()
        self._neighbourhoods = _Neighbourhoods(h) if neighbourhoods is None else neighbourhoods
        self._heaviest = int(weights.max(initial=0))
        self._columns = np.arange(k)
        self.unlocked = np.ones(n, dtype=bool)
        self.unlock()

    def unlock(self) -> None:
        """Unlock every node and re-read every cluster's best move."""
        self.unlocked[:] = True
        self.live = np.array(self.gain, order="F")
        fits = np.where(self.weights[:, None] <= self.cap - self.loads, self.live, 0)
        node = fits.argmax(axis=0)
        self.top = fits[node, self._columns] * self.h.num_nodes - node

    def _rescan(self, c: int) -> None:
        """Re-read the top of column c from ``live``."""
        column = self.live[:, c]
        room = self.cap - int(self.loads[c])
        if room < self._heaviest:
            column = np.where(self.weights <= room, column, 0)
        v = int(column.argmax())
        self.top[c] = column[v] * self.h.num_nodes - v

    def apply(self, v: int, b: int) -> np.ndarray:
        """Move v into cluster b and lock it. Returns v and the other
        members of its edges: the only nodes whose gain rows the move can
        change."""
        labels = self.labels
        a = int(labels[v])
        inc = self.h.node_edges[self._node_ptr[v]:self._node_ptr[v + 1]]
        rows, near, slot = self._neighbourhoods[v]
        col_a, col_b = self.counts[:, a], self.counts[:, b]
        left = col_a[inc] - 1  # counts[e, a] after the move
        joined = col_b[inc]  # counts[e, b] before it
        col_a[inc] = left
        col_b[inc] = joined + 1
        w = int(self.weights[v])
        self.loads[a] -= w
        self.loads[b] += w
        labels[v] = b
        self.unlocked[v] = False
        # only counts[e, a] and counts[e, b] moved. Member u's column a loses
        # e when counts[e, a] is now [u in a]: for u outside a, e has no
        # member in a left; for u in a, u became a's only member of e, so
        # its leave term, and with it its whole row, gains one while its own
        # column a stays 0. Likewise column b gains e when counts[e, b] was
        # [u in b] before: v entered an edge with no member in b, or for u
        # in b, u stopped being b's only member and its row loses one
        lab = labels[rows]
        in_a, in_b = lab == a, lab == b
        lost = np.bincount(near[left[slot] == in_a[near]], minlength=rows.size)
        entered = np.bincount(near[joined[slot] == in_b[near]], minlength=rows.size)
        shift = lost * in_a - entered * in_b
        # v's own row (place 0): its leave term moves from its edges' count
        # in a to their count in b, and its old own column a reads the change
        shift[0] = np.count_nonzero(joined == 0) - np.count_nonzero(left == 0)
        g = self.gain[rows]
        g += shift[:, None]
        g[:, a] -= lost
        g[:, b] += entered
        g[0, b] = 0
        self.gain[rows] = g
        g *= self.unlocked[rows, None]
        self.live[rows] = g

        # the changed rows that fit against each column's top; a top whose
        # own gain fell leaves its column to a rescan
        g *= self.weights[rows, None] <= self.cap - self.loads
        g *= self.h.num_nodes
        g -= rows[:, None]
        node = -self.top % self.h.num_nodes
        kept = self.live[node, self._columns] * self.h.num_nodes - node
        kept[self.top <= 0] = 0
        fell = set(np.flatnonzero(kept < self.top).tolist())
        self.top = np.maximum(kept, g.max(axis=0))
        # a's room now takes heavier nodes; b's may no longer take its top
        if self.cap - int(self.loads[a]) - w < self._heaviest:
            fell.add(a)
        if self.cap - int(self.loads[b]) < self._heaviest:
            fell.add(b)
        for c in fell:
            self._rescan(c)
        return rows


def _fm_pass(state: _RefineState) -> int:
    """One greedy pass: apply positive-gain, balance-feasible moves.

    Each step applies the least (-gain, v, b) over unlocked v, b not v's
    cluster, gain > 0 and ``loads[b] + weights[v] <= cap``: the largest cut
    reduction first, ties to the lower node id, then the lower target
    cluster. Each node moves at most once per pass. Returns the number of
    moves applied, and leaves every node unlocked for the next pass. A
    step's move is the first maximum of the k clusters' ``top`` scores,
    the lower cluster on a tie.
    """
    moves = 0
    n = state.h.num_nodes
    while True:
        b = int(state.top.argmax())
        score = int(state.top[b])
        if score <= 0:
            break
        state.apply(-score % n, b)
        moves += 1
    if moves:
        state.unlock()
    return moves


def _refine(
    h: Hypergraph,
    labels: np.ndarray,
    k: int,
    weights: np.ndarray,
    cap: int,
    pass_cuts: list[int] | None = None,
    neighbourhoods: _Neighbourhoods | None = None,
) -> np.ndarray:
    if not h.num_nodes:  # no node to move, and no column to take a top of
        return labels
    state = _RefineState(h, labels, k, weights, cap, neighbourhoods)
    for _ in range(MAX_PASSES):
        if _fm_pass(state) == 0:
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
    scanned = [False] * h.num_edges  # an edge's members are all seen after one scan
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
                if scanned[e]:
                    continue
                scanned[e] = True
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
) -> np.ndarray:
    """Optimal balanced 2-way split by vectorized enumeration.

    Only called for tiny coarsest levels, where 2^(n-1) assignments fit
    comfortably in memory. Node 0 is pinned to cluster 0 (the objective
    and the balance bound are label-symmetric). Such a level is the input
    itself, since a coarsened level keeps over 50 nodes (``partition``
    coarsens only above 200, merging at most ``MERGE_GROUP_CAP`` = 4 into
    one), so every weight is 1 and a split of sizes floor(n/2) and
    ceil(n/2) meets the bound.
    """
    n = h.num_nodes
    count = 1 << (n - 1)
    codes = np.arange(count, dtype=np.uint32)
    labels = np.zeros((count, n), dtype=np.int8)
    labels[:, 1:] = (codes[:, None] >> np.arange(n - 1, dtype=np.uint32)) & 1
    loads1 = labels @ weights.astype(np.int64)
    feasible = (loads1 <= cap) & (int(weights.sum()) - loads1 <= cap)
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
    a ``coarsen`` call merges nothing. The coarsest level is seeded with
    several deterministic candidates (weight round-robin plus two packed
    connectivity orders, plus exhaustive search for tiny 2-way cases);
    each is refined and the best cut wins. Its labels are projected and
    refined level by level back to ``h``. The result is balanced and
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

    # each level's fine graph, its node weights and its projection
    levels: list[tuple[Hypergraph, np.ndarray, np.ndarray]] = []
    cur, wts = h, np.ones(n, dtype=np.int64)
    while cur.num_nodes > floor:
        coarse, projection, coarse_wts = coarsen(cur, wts, weight_cap)
        if coarse.num_nodes == cur.num_nodes:
            break
        levels.append((cur, wts, projection))
        cur, wts = coarse, coarse_wts

    # several deterministic seedings compete at the coarsest level; greedy
    # refinement cannot escape a bad basin on its own
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
        candidates.append(_exact_bipartition(cur, wts, cap))

    labels = None
    best = None
    neighbourhoods = _Neighbourhoods(cur)  # the candidates share one graph
    for cand in candidates:
        refined = _refine(cur, cand, k, wts, cap, neighbourhoods=neighbourhoods)
        value = _cut_of(pin_counts(cur, refined, k))
        if best is None or value < best:
            labels, best = refined, value

    for fine, weights, projection in reversed(levels):
        labels = _refine(fine, labels[projection], k, weights, cap)
    return ClusterAssignment(labels, k, balance_epsilon)
