import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv.hypergraph import Hypergraph, KnowledgeHypergraph, build_hypergraph

from helpers import draw_hypergraph, random_hypergraph


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
    assert h.pins.tolist() == [0]
    assert h.pin_edge.tolist() == [0]
    assert h.node_ptr.tolist() == [0, 1]
    assert h.node_edges.tolist() == [0]


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


def test_incidence_arrays_are_read_only():
    h = build_hypergraph([[0, 1], [1, 2]])
    for arr in (h.pins, h.pin_edge, h.node_ptr, h.node_edges):
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 5


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_incidence_arrays_match_the_tuple_views(data):
    h = draw_hypergraph(data)
    assert h.pins.tolist() == [v for members in h.edge_members for v in members]
    assert h.pin_edge.tolist() == [e for e, members in enumerate(h.edge_members)
                                   for _ in members]
    assert h.node_ptr.shape == (h.num_nodes + 1,)
    for v in range(h.num_nodes):
        row = h.node_edges[h.node_ptr[v]:h.node_ptr[v + 1]]
        assert tuple(row.tolist()) == h.node_incidence[v]


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
        assert kh.relation_names == ("r", "s")
        assert kh.entity_names == ("a", "b", "c")
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
