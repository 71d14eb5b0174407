import numpy as np
import pytest

from hyperconv.hypergraph import Hypergraph, KnowledgeHypergraph, build_hypergraph

from helpers import random_hypergraph


def test_incidence_is_the_transpose_of_membership():
    h = build_hypergraph([[0, 1, 2], [1, 2]])
    assert h.num_nodes == 3
    assert h.num_edges == 2
    assert h.edge_members == ((0, 1, 2), (1, 2))
    assert h.node_incidence == ((0,), (0, 1), (0, 1))


def test_single_unary_edge():
    h = build_hypergraph([[0]])
    assert h.edge_members == ((0,),)
    assert h.node_incidence == ((0,),)
    assert h.degree(0) == 1
    assert h.edge_size(0) == 1


def test_member_lists_are_sorted_and_deduplicated():
    h = build_hypergraph([[2, 0, 2, 1]])
    assert h.edge_members == ((0, 1, 2),)
    assert h.duplicates_removed == 1


def test_repeated_member_sets_stay_distinct_edges():
    h = build_hypergraph([[0, 1], [0, 1]])
    assert h.num_edges == 2
    assert h.node_incidence[0] == (0, 1)


def test_empty_edge_rejected_with_index():
    with pytest.raises(ValueError, match="index 1"):
        build_hypergraph([[0, 1], []])


def test_out_of_range_ids_rejected():
    with pytest.raises(ValueError, match="negative"):
        build_hypergraph([[-1, 0]])
    with pytest.raises(ValueError, match="out of range"):
        build_hypergraph([[0, 5]], num_nodes=3)


def test_isolated_nodes_allowed_via_explicit_count():
    h = build_hypergraph([[0, 1]], num_nodes=4)
    assert h.num_nodes == 4
    assert h.node_incidence[3] == ()


def test_instances_are_immutable():
    h = build_hypergraph([[0, 1]])
    with pytest.raises(AttributeError):
        h.num_nodes = 5


def test_transpose_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = random_hypergraph(rng, max_nodes=50, max_edges=50)
        rebuilt = [[] for _ in range(h.num_edges)]
        for v, inc in enumerate(h.node_incidence):
            for e in inc:
                rebuilt[e].append(v)
        assert tuple(tuple(m) for m in rebuilt) == h.edge_members


def test_construction_is_deterministic():
    edges = [[3, 1], [0, 2, 4], [1, 4]]
    a = build_hypergraph(edges)
    b = build_hypergraph(edges)
    assert a.edge_members == b.edge_members
    assert a.node_incidence == b.node_incidence


class TestKnowledgeHypergraph:
    def base(self):
        return build_hypergraph([[0, 1], [1, 2]])

    def test_basic_lookup(self):
        kh = KnowledgeHypergraph(self.base(), [0, 1], ("r", "s"), ("a", "b", "c"))
        assert kh.num_relations == 2
        assert kh.relation_id("s") == 1
        assert kh.entity_id("c") == 2
        assert kh.edge_type == (0, 1)

    def test_type_length_must_match_edges(self):
        with pytest.raises(ValueError, match="edge_type length"):
            KnowledgeHypergraph(self.base(), [0], ("r",), ("a", "b", "c"))

    def test_entity_vocab_must_match_nodes(self):
        with pytest.raises(ValueError, match="entity vocab"):
            KnowledgeHypergraph(self.base(), [0, 0], ("r",), ("a", "b"))

    def test_relation_id_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            KnowledgeHypergraph(self.base(), [0, 2], ("r", "s"), ("a", "b", "c"))

    def test_vocab_names_must_be_unique(self):
        with pytest.raises(ValueError, match="not unique"):
            KnowledgeHypergraph(self.base(), [0, 0], ("r",), ("a", "a", "c"))

    def test_immutable(self):
        kh = KnowledgeHypergraph(self.base(), [0, 0], ("r",), ("a", "b", "c"))
        with pytest.raises(AttributeError):
            kh.edge_type = (1, 1)
