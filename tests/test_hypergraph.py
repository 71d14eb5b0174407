import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv import TrainConfig, predict_edge, predict_relation, train_completion, train_prediction
from hyperconv.convolution import LayerParams, e2e_forward, init_layer, n2e
from hyperconv.hypergraph import Hypergraph, KnowledgeHypergraph, _node_sets, build_hypergraph

from helpers import draw_edges, planted_communities, planted_knowledge, random_hypergraph


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
    assert (h.num_nodes, h.num_edges) == (4, 2)
    assert h.edge_members == ((0, 2), (2,))
    assert h.pin_edge.tolist() == [0, 0, 1]
    assert incidence_rows(h) == [(0,), (), (0, 1), ()]


def test_member_lists_are_sorted_and_deduplicated(caplog):
    with caplog.at_level(logging.DEBUG, logger="hyperconv.hypergraph"):
        h = build_hypergraph([[2, 0, 2, 1]])
    assert h.edge_members == ((0, 1, 2),)
    assert "dropped 1 duplicate member ids" in caplog.text


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
    assert "edge_members" not in Hypergraph.__slots__


def test_construction_is_deterministic():
    edges = [[3, 1], [0, 2, 4], [1, 4]]
    a = build_hypergraph(edges)
    b = build_hypergraph(edges)
    assert a.edge_members == b.edge_members
    for name in ("edge_ptr", "pins", "pin_edge", "node_ptr", "node_edges"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@settings(max_examples=300)
@given(data=st.data())
def test_node_sets_lay_out_each_sets_sorted_distinct_members(data):
    n = data.draw(st.integers(1, 20), label="num_nodes")
    # Python and numpy integers, mixed within a set, repeated, in any order
    node_id = st.builds(lambda v, cast: cast(v), st.integers(0, n - 1),
                        st.sampled_from([int, np.int64, np.int32, np.uint8]))
    sets = data.draw(st.lists(st.lists(node_id, min_size=1, max_size=8), max_size=8),
                     label="sets")
    canon = [sorted(set(s)) for s in sets]
    sizes = [len(c) for c in canon]
    # each set read once, from an iterator, as build_hypergraph allows
    for members, starts, got_sizes in (_node_sets(sets, n), _node_sets(sets),
                                       _node_sets(map(iter, sets), n)):
        assert members.dtype == starts.dtype == got_sizes.dtype == np.int64
        assert members.tolist() == [v for c in canon for v in c]
        assert got_sizes.tolist() == sizes
        assert starts.tolist() == [0, *itertools.accumulate(sizes)][:len(sets)]


N = 6  # nodes of every structure the entry points below read


@pytest.fixture(scope="module")
def entry_points():
    """Each public entry point that takes node sets, as (call on one bad
    set, the name its messages give a set)."""
    rng = np.random.default_rng(0)
    h = build_hypergraph([[0, 1, 2], [2, 3], [3, 4, 5]])
    layers = (init_layer(3, 3, rng), init_layer(2, 4, rng, activation="identity"))
    edge_init, node_x = rng.normal(size=(3, 2)), rng.normal(size=(N, 1))
    tiny = dict(clusters=2, hidden_dim=4, epochs=1, patience=1, batch_size=16, seed=0)
    kh = planted_knowledge(np.random.default_rng(1), num_communities=2, nodes_per=3,
                           num_edges=30)
    completion, _ = train_completion(kh, TrainConfig(task="completion", **tiny))
    edges, _ = planted_communities(np.random.default_rng(2), 2, 3, 30, 2, 3)
    prediction, _ = train_prediction(build_hypergraph(edges, num_nodes=N),
                                     TrainConfig(task="prediction", **tiny))
    assert completion.structure.num_nodes == prediction.structure.num_nodes == N
    return {
        "build_hypergraph": (lambda s: build_hypergraph([s], num_nodes=N), "edge"),
        "e2e_forward": (lambda s: e2e_forward(layers, "mean", h, edge_init, node_x, [s]),
                        "target"),
        "n2e": (lambda s: n2e(LayerParams(np.eye(2)), "mean", np.ones((N, 2)), [s],
                              bilinear=False), "target"),
        "predict_relation": (lambda s: predict_relation(completion, s), "candidate"),
        "predict_edge": (lambda s: predict_edge(prediction, s), "candidate"),
    }


@pytest.mark.parametrize("entry", ["build_hypergraph", "e2e_forward", "n2e",
                                   "predict_relation", "predict_edge"])
@pytest.mark.parametrize("bad, message", [
    ([0, 1.5], r"node id 1\.5 is not an integer"),
    ([0, True], r"node id True is not an integer"),
    ([0, "a"], r"node id 'a' is not an integer"),
    ([0, -1], rf"{{name}} 0 has node id -1, out of range \[0, {N}\)"),
    ([0, N], rf"{{name}} 0 has node id {N}, out of range \[0, {N}\)"),
    ([0, 2**64], rf"{{name}} 0 has node id {2**64}, out of range \[0, {N}\)"),
    ([], r"empty {name} at index 0"),
], ids=["float", "bool", "string", "negative", "n", "beyond-int64", "empty"])
def test_every_entry_point_rejects_a_bad_node_set_in_one_line(entry_points, entry, bad,
                                                             message):
    call, name = entry_points[entry]
    with pytest.raises(ValueError, match=f"^{message.format(name=name)}$"):
        call(bad)


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
