"""Cluster-derived initial features for nodes and hyperedges.

Nodes get the one-hot of their cluster id (this same vector is reused as
the per-node tag concatenated at every aggregation step). Hyperedges get
the one-hot of their pooled cluster id, optionally prefixed with a one-hot
relation type on knowledge hypergraphs. An edge row thus holds one or two
ones, so a model keeps the edge features as ids (``EdgeIds``), which layer
1 counts; ``EdgeIds.dense`` builds the table for callers that want it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hypergraph import Hypergraph, KnowledgeHypergraph
from .partition import ClusterAssignment, pin_counts


@dataclass(frozen=True)
class EdgeIds:
    """Initial edge features as the columns of their ones.

    Edge e's row of the ``(m, num_relations + k)`` table ``dense`` holds a
    one at column ``num_relations + cluster[e]``, its pooled cluster, and
    on knowledge hypergraphs one at ``relation[e]``, its relation type,
    unless ``hidden[e]``: completion hides a target's own relation for the
    duration of its batch, so the label cannot leak into the message passing.
    """

    cluster: np.ndarray
    k: int
    relation: np.ndarray | None = None
    num_relations: int = 0
    hidden: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of ``dense``."""
        return self.cluster.size, self.num_relations + self.k

    def hide(self, edges) -> EdgeIds:
        """These ids with the relations of ``edges`` hidden."""
        hidden = np.zeros(self.cluster.size, dtype=bool)
        hidden[edges] = True
        return replace(self, hidden=hidden)

    def dense(self) -> np.ndarray:
        """The float64 one-hot table these ids stand for."""
        rows = np.arange(self.cluster.size)
        out = np.zeros(self.shape, dtype=np.float64)
        if self.relation is not None:
            shown = rows if self.hidden is None else rows[~self.hidden]
            out[shown, self.relation[shown]] = 1.0
        out[rows, self.num_relations + self.cluster] = 1.0
        return out


def node_onehot(c: ClusterAssignment) -> np.ndarray:
    """(n, k) matrix with a single 1 per row at the node's cluster id."""
    n = c.num_nodes
    out = np.zeros((n, c.k), dtype=np.float64)
    out[np.arange(n), c.cluster_of] = 1.0
    return out


def edge_cluster_pool(h: Hypergraph, c: ClusterAssignment) -> np.ndarray:
    """Pool each hyperedge's member clusters down to a single cluster id.

    Majority vote over the member nodes; ties go to the lowest cluster id.
    Invariant to member order by construction.
    """
    if c.num_nodes != h.num_nodes:
        raise ValueError("assignment does not match hypergraph")
    # argmax takes the lowest id on ties
    return pin_counts(h, c.cluster_of, c.k).argmax(axis=1)


def edge_cluster_onehot(h: Hypergraph, c: ClusterAssignment) -> np.ndarray:
    """(m, k) initial edge features: the one-hot of each pooled cluster id."""
    return EdgeIds(edge_cluster_pool(h, c), c.k).dense()


def knowledge_edge_init(kh: KnowledgeHypergraph, c: ClusterAssignment) -> np.ndarray:
    """(m, |R| + k) rows: one-hot relation type, then one-hot pooled cluster.

    The dense form of the ids a relational model keeps; training hides a
    target edge's relation id from the count for the duration of its batch.
    """
    return EdgeIds(edge_cluster_pool(kh.base, c), c.k, kh.edge_type, kh.num_relations).dense()
