"""Cluster-derived initial features for nodes and hyperedges.

Nodes get the one-hot of their cluster id (this same vector is reused as
the per-node tag concatenated at every aggregation step). Hyperedges get
the one-hot of their pooled cluster id, optionally prefixed with a one-hot
relation type on knowledge hypergraphs.
"""

from __future__ import annotations

import numpy as np

from .hypergraph import Hypergraph, KnowledgeHypergraph
from .partition import ClusterAssignment, pin_counts


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
    out = np.zeros((h.num_edges, c.k), dtype=np.float64)
    out[np.arange(h.num_edges), edge_cluster_pool(h, c)] = 1.0
    return out


def knowledge_edge_init(kh: KnowledgeHypergraph, c: ClusterAssignment) -> np.ndarray:
    """(m, |R| + k) rows: one-hot relation type, then one-hot pooled cluster.

    Training zeroes a target edge's type sub-vector for the duration of its
    batch, so it cannot leak its own label into the message passing.
    """
    num_rel = kh.num_relations
    rows = np.arange(kh.base.num_edges)
    out = np.zeros((rows.size, num_rel + c.k), dtype=np.float64)
    out[rows, kh.edge_type] = 1.0
    out[rows, num_rel + edge_cluster_pool(kh.base, c)] = 1.0
    return out
