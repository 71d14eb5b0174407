"""Immutable hypergraph and knowledge-hypergraph structures.

``Hypergraph`` stores its edges in one layout, read-only int64 arrays: the
edge-major CSR (``pins`` segmented by ``edge_ptr``, with each pin's edge in
``pin_edge``) and the node-major CSR (``node_edges`` segmented by
``node_ptr``). The partitioner, the features and the convolution all read
these arrays, through ``_segments`` where they gather several segments at
once; none keeps a private copy. Member tuples exist only on demand, built
from ``pins`` by ``edge_members`` or ``_edge_sets``.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class Hypergraph:
    """A set of nodes plus hyperedges, each a nonempty subset of the nodes.

    Instances are immutable after construction: the arrays are read-only,
    and the two incidence directions are exact transposes of each other.
    Safe for unrestricted concurrent reads.

    Attributes:
        num_nodes: number of nodes (ids 0..num_nodes-1).
        num_edges: number of hyperedges (ids 0..num_edges-1).
        edge_ptr, pins: edge-major CSR of the incidence; edge e's members,
            ascending, are ``pins[edge_ptr[e]:edge_ptr[e + 1]]``.
        pin_edge: the edge of each entry of ``pins``.
        node_ptr, node_edges: node-major CSR of the incidence; node v's
            edges, ascending, are ``node_edges[node_ptr[v]:node_ptr[v + 1]]``.
    """

    __slots__ = ("num_nodes", "num_edges", "edge_ptr", "pins", "pin_edge", "node_ptr",
                 "node_edges", "__weakref__")

    def __init__(self, edge_ptr: np.ndarray, pins: np.ndarray, num_nodes: int):
        """From the edge-major CSR, taken as given: each segment of ``pins``
        must be nonempty, ascending and distinct, with ids in [0, num_nodes).
        ``build_hypergraph`` makes such arrays from raw member lists."""
        edge_ptr = np.array(edge_ptr, dtype=np.int64)
        pins = np.array(pins, dtype=np.int64)
        m = edge_ptr.size - 1
        pin_edge = np.repeat(np.arange(m, dtype=np.int64), np.diff(edge_ptr))
        # sorted (node, edge) codes list each node's edges in ascending order
        node_edges = np.sort(pins * m + pin_edge) % max(m, 1)
        node_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(pins, minlength=num_nodes), out=node_ptr[1:])
        for name, arr in (("edge_ptr", edge_ptr), ("pins", pins), ("pin_edge", pin_edge),
                          ("node_ptr", node_ptr), ("node_edges", node_edges)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "num_edges", m)

    @property
    def edge_members(self) -> tuple[tuple[int, ...], ...]:
        """Each hyperedge's members as a sorted tuple of node ids, built
        from ``pins`` on every access: each read costs O(pins)."""
        return tuple(_edge_sets(self, range(self.num_edges)))

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __repr__(self) -> str:
        return f"Hypergraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def _segments(ptr: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions covered by the CSR segments ``ptr[i]:ptr[i + 1]`` of the
    ``ids``, concatenated in ``ids`` order, and each segment's length."""
    starts = ptr[ids]
    lens = ptr[ids + 1] - starts
    offsets = np.cumsum(lens) - lens
    return np.arange(int(lens.sum())) + np.repeat(starts - offsets, lens), lens


def _edge_sets(h: Hypergraph, ids: Iterable[int]) -> list[tuple[int, ...]]:
    """The sorted member tuples of the edges ``ids``, in that order."""
    pins, ptr = h.pins.tolist(), h.edge_ptr.tolist()
    return [tuple(pins[ptr[e]:ptr[e + 1]]) for e in map(int, ids)]


def _first_non_integer(values) -> tuple[int, object] | None:
    """The position and value of the first entry of ``values`` that is not
    a Python or numpy integer (a bool is not one), or None."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        return None
    return next(((i, v) for i, v in enumerate(values)
                 if isinstance(v, bool) or not isinstance(v, (int, np.integer))), None)


def _node_sets(sets: Iterable[Iterable[int]], num_nodes: int | None = None,
               name: str = "target") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node-set rule. Each set is nonempty; each id is a Python or numpy
    integer, not a bool, in [0, num_nodes) (nonnegative if num_nodes is None).
    Member order and repeats do not matter. Returns the sorted distinct ids end
    to end and each set's start and size, the arrays ``_SetBatch`` takes. Fails
    in one line on the first non-integer id, then the first out of range, then
    the first empty set."""
    sets = list(map(tuple, sets))  # read twice below; a tuple passes through uncopied
    ids = itertools.chain.from_iterable
    # Python ints need no closer look, so the usual scan copies no ids
    bad = None if set(map(type, ids(sets))) <= {int} else _first_non_integer(ids(sets))
    if bad is not None:
        raise ValueError(f"node id {bad[1]!r} is not an integer")
    canon = [sorted(set(s)) for s in sets]
    # Python compares the ids before any int64 cast, so a huge one cannot overflow
    high = 2**63 if num_nodes is None else num_nodes
    t = next((t for t, c in enumerate(canon) if c and not 0 <= c[0] <= c[-1] < high), None)
    if t is not None:
        v = next(v for v in canon[t] if not 0 <= v < high)
        raise ValueError(f"{name} {t} has negative node id {v}" if v < 0 and num_nodes is None
                         else f"{name} {t} has node id {v}, out of range [0, {high})")
    sizes = np.fromiter(map(len, canon), dtype=np.int64, count=len(canon))
    if sizes.size and sizes.min() == 0:
        raise ValueError(f"empty {name} at index {int(sizes.argmin())}")
    members = np.fromiter(ids(canon), dtype=np.int64, count=int(sizes.sum()))
    return members, np.cumsum(sizes) - sizes, sizes


def build_hypergraph(
    edges: Iterable[Iterable[int]], num_nodes: int | None = None
) -> Hypergraph:
    """Build a hypergraph from raw member lists.

    Each edge follows the node-set rule of ``_node_sets``. Repeated ids
    inside one edge are dropped (n-ary facts in real datasets repeat
    entities); the drop count is logged at debug level.

    Args:
        edges: one iterable of node ids per hyperedge.
        num_nodes: total node count; inferred as max id + 1 when omitted.

    Raises:
        ValueError: in one line, on the first of ``node id <v> is not an
            integer`` (a float, bool or other non-integer), ``edge <i> has
            node id <v>, out of range [0, num_nodes)`` (``has negative node
            id <v>`` when num_nodes is inferred) and ``empty edge at index <i>``.
    """
    edges = list(map(tuple, edges))  # a tuple passes through uncopied
    members, starts, sizes = _node_sets(edges, num_nodes, "edge")
    duplicates = sum(map(len, edges)) - members.size
    if duplicates:
        logger.debug("dropped %d duplicate member ids during construction", duplicates)
    n = int(members.max(initial=-1)) + 1 if num_nodes is None else num_nodes
    return Hypergraph(np.append(starts, members.size), members, n)


class KnowledgeHypergraph:
    """A hypergraph whose edges are typed n-ary facts.

    Each hyperedge carries exactly one relation id, held in the read-only
    int64 array ``edge_type``; relation and entity vocabularies map names
    to dense ids bijectively.
    """

    __slots__ = ("base", "edge_type", "relation_names", "entity_names")

    def __init__(
        self,
        base: Hypergraph,
        edge_type: Sequence[int],
        relation_names: Sequence[str],
        entity_names: Sequence[str],
    ):
        if len(edge_type) != base.num_edges:
            raise ValueError(
                f"edge_type length {len(edge_type)} != num_edges {base.num_edges}"
            )
        if len(entity_names) != base.num_nodes:
            raise ValueError(
                f"entity vocab size {len(entity_names)} != num_nodes {base.num_nodes}"
            )
        bad = _first_non_integer(edge_type)  # numpy would read [True, 1] as integers
        if bad is not None:
            raise ValueError(f"relation id {bad[1]!r} of edge {bad[0]} is not an integer")
        types = np.array(edge_type, dtype=np.int64)  # a copy: the caller's stays writeable
        num_rel = len(relation_names)
        bad = np.flatnonzero((types < 0) | (types >= num_rel))
        if bad.size:
            raise ValueError(f"relation id {types[bad[0]]} of edge {bad[0]} out of range")
        if len(set(relation_names)) != num_rel or len(set(entity_names)) != len(entity_names):
            raise ValueError("vocabulary names are not unique")
        types.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "edge_type", types)
        object.__setattr__(self, "relation_names", tuple(relation_names))
        object.__setattr__(self, "entity_names", tuple(entity_names))

    def __setattr__(self, name, value):
        raise AttributeError("KnowledgeHypergraph is immutable")

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def __repr__(self) -> str:
        return (
            f"KnowledgeHypergraph(num_nodes={self.base.num_nodes}, "
            f"num_edges={self.base.num_edges}, num_relations={self.num_relations})"
        )
