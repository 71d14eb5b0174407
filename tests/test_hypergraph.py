import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv.hypergraph import Hypergraph, KnowledgeHypergraph, build_hypergraph

from helpers import draw_edges, random_hypergraph


def incidence_rows(h):
    """Each node's edges read off the node-major CSR."""
    ptr, edges = h.node_ptr.tolist(), h.node_edges.tolist()
    return [tuple(edges[a:b]) for a, b in zip(ptr, ptr[1:])]


def test_incidence_is_the_transpose_of_membership():
    h = build_hypergraph([[0, 1, 2], [1, 2]])
    assert h.num_nodes == 3
    assert h.num_edges == 2
    assert h.edge_members == ((0, 1, 2), (1, 2))
    assert incidence_rows(h) == [(0,), (0, 1), (0, 1)]


def test_single_unary_edge():
    h = build_hypergraph([[0]])
    assert h.edge_members == ((0,),)
    assert incidence_rows(h) == [(0,)]
    assert h.edge_ptr.tolist() == [0, 1]
    assert h.pins.tolist() == [0]
    assert h.pin_edge.tolist() == [0]
    assert h.node_ptr.tolist() == [0, 1]
    assert h.node_edges.tolist() == [0]


def test_constructor_takes_the_edge_major_csr():
    h = Hypergraph(np.array([0, 2, 3]), np.array([0, 2, 2]), 4)
    assert (h.num_nodes, h.num_edges, h.duplicates_removed) == (4, 2, 0)
    assert h.edge_members == ((0, 2), (2,))
    assert h.pin_edge.tolist() == [0, 0, 1]
    assert incidence_rows(h) == [(0,), (), (0, 1), ()]


def test_member_lists_are_sorted_and_deduplicated():
    h = build_hypergraph([[2, 0, 2, 1]])
    assert h.edge_members == ((0, 1, 2),)
    assert h.duplicates_removed == 1


def test_repeated_member_sets_stay_distinct_edges():
    h = build_hypergraph([[0, 1], [0, 1]])
    assert h.num_edges == 2
    assert incidence_rows(h)[0] == (0, 1)


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
    assert incidence_rows(h)[3] == ()


def test_instances_are_immutable():
    h = build_hypergraph([[0, 1]])
    with pytest.raises(AttributeError):
        h.num_nodes = 5


def test_transpose_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = random_hypergraph(rng, max_nodes=50, max_edges=50)
        rebuilt = [[] for _ in range(h.num_edges)]
        for v, inc in enumerate(incidence_rows(h)):
            for e in inc:
                rebuilt[e].append(v)
        assert tuple(tuple(m) for m in rebuilt) == h.edge_members


def test_incidence_arrays_are_read_only():
    h = build_hypergraph([[0, 1], [1, 2]])
    for arr in (h.edge_ptr, h.pins, h.pin_edge, h.node_ptr, h.node_edges):
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 5


@settings(max_examples=200)
@given(data=st.data())
def test_incidence_arrays_match_the_input_edges(data):
    edges, n = draw_edges(data)
    h = build_hypergraph(edges, num_nodes=n)
    canon = [sorted(set(e)) for e in edges]
    assert h.edge_ptr.tolist() == [0, *itertools.accumulate(map(len, canon))]
    assert h.pins.tolist() == [v for members in canon for v in members]
    assert h.pin_edge.tolist() == [e for e, members in enumerate(canon) for _ in members]
    rows = [[e for e, members in enumerate(canon) if v in members] for v in range(n)]
    assert h.node_ptr.tolist() == [0, *itertools.accumulate(map(len, rows))]
    assert h.node_edges.tolist() == [e for row in rows for e in row]
    assert h.duplicates_removed == sum(len(e) - len(set(e)) for e in edges)
    assert "edge_members" not in Hypergraph.__slots__


def test_construction_is_deterministic():
    edges = [[3, 1], [0, 2, 4], [1, 4]]
    a = build_hypergraph(edges)
    b = build_hypergraph(edges)
    assert a.edge_members == b.edge_members
    for name in ("edge_ptr", "pins", "pin_edge", "node_ptr", "node_edges"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestKnowledgeHypergraph:
    def base(self):
        return build_hypergraph([[0, 1], [1, 2]])

    def test_basic_lookup(self):
        kh = KnowledgeHypergraph(self.base(), [0, 1], ("r", "s"), ("a", "b", "c"))
        assert kh.num_relations == 2
        assert kh.relation_names == ("r", "s")
        assert kh.entity_names == ("a", "b", "c")
        assert kh.edge_type.tolist() == [0, 1]

    def test_type_length_must_match_edges(self):
        with pytest.raises(ValueError, match="edge_type length"):
            KnowledgeHypergraph(self.base(), [0], ("r",), ("a", "b", "c"))

    def test_entity_vocab_must_match_nodes(self):
        with pytest.raises(ValueError, match="entity vocab"):
            KnowledgeHypergraph(self.base(), [0, 0], ("r",), ("a", "b"))

    def test_relation_id_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            KnowledgeHypergraph(self.base(), [0, 2], ("r", "s"), ("a", "b", "c"))

    @pytest.mark.parametrize("types", [[0.5, 1], [True, 1], np.array([0.0, 1.0]),
                                       np.array([False, True]), np.array([[0], [1]])])
    def test_relation_id_must_be_an_integer(self, types):
        with pytest.raises(ValueError, match="of edge 0 is not an integer"):
            KnowledgeHypergraph(self.base(), types, ("r", "s"), ("a", "b", "c"))

    def test_vocab_names_must_be_unique(self):
        with pytest.raises(ValueError, match="not unique"):
            KnowledgeHypergraph(self.base(), [0, 0], ("r",), ("a", "a", "c"))

    def test_immutable(self):
        kh = KnowledgeHypergraph(self.base(), [0, 0], ("r",), ("a", "b", "c"))
        with pytest.raises(AttributeError):
            kh.edge_type = (1, 1)

    def test_edge_type_is_a_read_only_copy(self):
        types = np.array([1, 0])
        kh = KnowledgeHypergraph(self.base(), types, ("r", "s"), ("a", "b", "c"))
        assert kh.edge_type.dtype == np.int64 and not kh.edge_type.flags.writeable
        assert types.flags.writeable
        types[0] = 0
        assert kh.edge_type.tolist() == [1, 0]
