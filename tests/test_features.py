import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv import features
from hyperconv.features import (
    edge_cluster_onehot,
    edge_cluster_pool,
    knowledge_edge_init,
    node_onehot,
)
from hyperconv.hypergraph import KnowledgeHypergraph, build_hypergraph
from hyperconv.partition import ClusterAssignment, pin_counts

from helpers import draw_hypergraph, naive_pool, uniform_hypergraph


def assignment(labels, k):
    return ClusterAssignment(np.asarray(labels, dtype=np.int64), k, balance_epsilon=10.0)


def test_node_onehot_places_single_one():
    feats = node_onehot(assignment([2, 0], 4))
    np.testing.assert_array_equal(feats, [[0, 0, 1, 0], [1, 0, 0, 0]])


def test_node_onehot_k1():
    np.testing.assert_array_equal(node_onehot(assignment([0, 0, 0], 1)), np.ones((3, 1)))


def test_node_onehot_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = int(rng.integers(1, 6))
        labels = rng.integers(0, k, size=int(rng.integers(1, 20)))
        np.testing.assert_array_equal(node_onehot(assignment(labels, k)).sum(axis=1), 1.0)


class TestEdgeClusterPool:
    def test_strict_majority(self):
        h = build_hypergraph([[0, 1, 2]])
        assert edge_cluster_pool(h, assignment([1, 1, 3], 4)).tolist() == [1]

    def test_tie_takes_lowest_id(self):
        h = build_hypergraph([[0, 1]])
        assert edge_cluster_pool(h, assignment([2, 0], 3)).tolist() == [0]

    def test_unanimous_members(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            q = int(rng.integers(0, 3))
            h = build_hypergraph([[0, 1, 2, 3]])
            assert edge_cluster_pool(h, assignment([q] * 4, 3)).tolist() == [q]

    def test_member_order_irrelevant(self):
        labels = [0, 1, 1, 2, 0]
        a = build_hypergraph([[0, 1, 2], [3, 4]], num_nodes=5)
        b = build_hypergraph([[2, 0, 1], [4, 3]], num_nodes=5)
        np.testing.assert_array_equal(
            edge_cluster_pool(a, assignment(labels, 3)),
            edge_cluster_pool(b, assignment(labels, 3)),
        )

    def test_size_mismatch_rejected(self):
        h = build_hypergraph([[0, 1]])
        with pytest.raises(ValueError, match="match"):
            edge_cluster_pool(h, assignment([0, 0, 0], 1))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_matches_naive_majority_vote(self, data):
        h = draw_hypergraph(data, max_size=6)
        k = data.draw(st.integers(1, 5), label="k")
        n = h.num_nodes
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
                           label="labels")
        # blocks of 1 to every edge plus one, so the counts cross block boundaries
        block = data.draw(st.integers(1, h.num_edges + 1), label="block")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "_POOL_BLOCK", block)
            got = edge_cluster_pool(h, assignment(labels, k))
        assert got.tolist() == naive_pool(h, labels)

    def test_holds_no_edges_by_clusters_table(self):
        # 60,000 edges at k = 16 make a 7.7 MB (edges, k) count table; pooled a
        # block of edges at a time, the call peaks far below it
        h = uniform_hypergraph(3, 60_000, 4)
        labels = np.random.default_rng(4).integers(0, 16, size=h.num_nodes)
        c = assignment(labels, 16)
        table = h.num_edges * c.k * np.dtype(np.int64).itemsize
        tracemalloc.start()
        try:
            got = edge_cluster_pool(h, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table / 4
        assert np.array_equal(got, pin_counts(h, labels, c.k).argmax(axis=1))


def test_edge_onehot_takes_majority_cluster():
    h = build_hypergraph([[0, 1, 2]])
    c = assignment([0, 2, 2], 3)
    np.testing.assert_array_equal(edge_cluster_onehot(h, c), [[0, 0, 1]])


class TestKnowledgeEdgeInit:
    def kh(self):
        base = build_hypergraph([[0, 1], [1, 2]])
        return KnowledgeHypergraph(base, [1, 0], ("r0", "r1", "r2"), ("a", "b", "c"))

    def test_concatenated_layout(self):
        feats = knowledge_edge_init(self.kh(), assignment([0, 0, 1], 2))
        assert feats.shape == (2, 5)  # |R| + k
        np.testing.assert_array_equal(feats[0], [0, 1, 0, 1, 0])

    @settings(max_examples=100)
    @given(data=st.data())
    def test_equals_the_two_one_hots_concatenated(self, data):
        h = draw_hypergraph(data, max_nodes=10, max_edges=10)
        num_rel = data.draw(st.integers(1, 4), label="relations")
        k = data.draw(st.integers(1, 4), label="k")
        types = data.draw(st.lists(st.integers(0, num_rel - 1), min_size=h.num_edges,
                                   max_size=h.num_edges), label="types")
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=h.num_nodes,
                                    max_size=h.num_nodes), label="labels")
        kh = KnowledgeHypergraph(h, types, tuple(f"r{i}" for i in range(num_rel)),
                                 tuple(f"e{v}" for v in range(h.num_nodes)))
        c = assignment(labels, k)
        feats = knowledge_edge_init(kh, c)
        want = np.concatenate([np.eye(num_rel)[types].reshape(h.num_edges, num_rel),
                               edge_cluster_onehot(h, c)], axis=1)
        assert feats.dtype == np.float64 and feats.flags.c_contiguous
        assert np.array_equal(feats, want)

    def test_sub_vector_sums(self):
        feats = knowledge_edge_init(self.kh(), assignment([1, 1, 0], 2))
        assert feats[:, :3].sum(axis=1).tolist() == [1.0, 1.0]
        assert feats[:, 3:].sum(axis=1).tolist() == [1.0, 1.0]
