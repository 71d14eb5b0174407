"""Immutable hypergraph and knowledge-hypergraph structures.

Both incidence directions (node -> edges, edge -> nodes) are materialized
at construction time so traversal is O(1) per neighbor in either direction.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Sequence

logger = logging.getLogger(__name__)


class Hypergraph:
    """A set of nodes plus hyperedges, each a nonempty subset of the nodes.

    Instances are immutable after construction: member lists are stored as
    sorted tuples and the two incidence directions are exact transposes of
    each other. Safe for unrestricted concurrent reads.

    Attributes:
        num_nodes: number of nodes (ids 0..num_nodes-1).
        num_edges: number of hyperedges (ids 0..num_edges-1).
        edge_members: tuple of sorted node-id tuples, one per hyperedge.
        node_incidence: tuple of sorted edge-id tuples, one per node.
        duplicates_removed: count of repeated node ids dropped from input
            edges during construction.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "edge_members",
        "node_incidence",
        "duplicates_removed",
        "__weakref__",
    )

    def __init__(
        self,
        edge_members: Sequence[tuple[int, ...]],
        num_nodes: int,
        duplicates_removed: int = 0,
    ):
        incidence: list[list[int]] = [[] for _ in range(num_nodes)]
        for eid, members in enumerate(edge_members):
            for v in members:
                incidence[v].append(eid)
        object.__setattr__(self, "edge_members", tuple(edge_members))
        object.__setattr__(
            self, "node_incidence", tuple(tuple(lst) for lst in incidence)
        )
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "num_edges", len(edge_members))
        object.__setattr__(self, "duplicates_removed", duplicates_removed)

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __repr__(self) -> str:
        return f"Hypergraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def degree(self, v: int) -> int:
        """Number of hyperedges incident to node v."""
        return len(self.node_incidence[v])

    def edge_size(self, e: int) -> int:
        """Number of member nodes of hyperedge e."""
        return len(self.edge_members[e])


def build_hypergraph(
    edges: Iterable[Iterable[int]], num_nodes: int | None = None
) -> Hypergraph:
    """Build a hypergraph from raw member lists.

    Node ids must be dense nonnegative integers. Repeated ids inside one
    edge are silently deduplicated (n-ary facts in real datasets repeat
    entities); the drop count is surfaced as ``duplicates_removed``.

    Args:
        edges: one iterable of node ids per hyperedge.
        num_nodes: total node count; inferred as max id + 1 when omitted.

    Raises:
        ValueError: on an empty edge (reported with its index) or an id
            outside [0, num_nodes).
    """
    members: list[tuple[int, ...]] = []
    duplicates = 0
    max_id = -1
    for idx, edge in enumerate(edges):
        raw = list(edge)
        if not raw:
            raise ValueError(f"empty edge at index {idx}")
        uniq = sorted(set(raw))
        duplicates += len(raw) - len(uniq)
        if uniq[0] < 0:
            raise ValueError(f"negative node id {uniq[0]} in edge {idx}")
        if num_nodes is not None and uniq[-1] >= num_nodes:
            raise ValueError(
                f"node id {uniq[-1]} in edge {idx} out of range [0, {num_nodes})"
            )
        max_id = max(max_id, uniq[-1])
        members.append(tuple(uniq))
    n = (max_id + 1) if num_nodes is None else num_nodes
    if duplicates:
        logger.debug("dropped %d duplicate member ids during construction", duplicates)
    return Hypergraph(members, n, duplicates_removed=duplicates)


class KnowledgeHypergraph:
    """A hypergraph whose edges are typed n-ary facts.

    Each hyperedge carries exactly one relation id; relation and entity
    vocabularies map names to dense ids bijectively.
    """

    __slots__ = (
        "base",
        "edge_type",
        "relation_names",
        "entity_names",
        "_relation_ids",
        "_entity_ids",
    )

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
        num_rel = len(relation_names)
        for eid, t in enumerate(edge_type):
            if not 0 <= t < num_rel:
                raise ValueError(f"relation id {t} of edge {eid} out of range")
        rel_ids = {name: i for i, name in enumerate(relation_names)}
        ent_ids = {name: i for i, name in enumerate(entity_names)}
        if len(rel_ids) != num_rel or len(ent_ids) != len(entity_names):
            raise ValueError("vocabulary names are not unique")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "edge_type", tuple(edge_type))
        object.__setattr__(self, "relation_names", tuple(relation_names))
        object.__setattr__(self, "entity_names", tuple(entity_names))
        object.__setattr__(self, "_relation_ids", rel_ids)
        object.__setattr__(self, "_entity_ids", ent_ids)

    def __setattr__(self, name, value):
        raise AttributeError("KnowledgeHypergraph is immutable")

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def relation_id(self, name: str) -> int:
        return self._relation_ids[name]

    def entity_id(self, name: str) -> int:
        return self._entity_ids[name]

    def __repr__(self) -> str:
        return (
            f"KnowledgeHypergraph(num_nodes={self.base.num_nodes}, "
            f"num_edges={self.base.num_edges}, num_relations={self.num_relations})"
        )
