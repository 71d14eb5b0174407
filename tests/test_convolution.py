import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv import convolution
from hyperconv.convolution import (
    OMEGA_KINDS,
    E2ECache,
    LayerParams,
    _edge_aggregate,
    _edge_summaries,
    _affine_forward,
    _SetBatch,
    e2e_backward,
    e2e_forward,
    e2n,
    init_layer,
    lift_edges,
    n2e,
)
from hyperconv.features import EdgeIds
from hyperconv.hypergraph import _node_sets, build_hypergraph

from helpers import (
    draw_hypergraph,
    gather_e2e_forward,
    gradcheck_max_error,
    layer1_pre_grad,
    loop_affine_forward,
    loop_bilinear_weight_grad,
    naive_e2n,
    naive_n2e,
    naive_set_groups,
    numeric_grad,
    random_hypergraph,
)


def omega(kind, rows, bilinear=False):
    """One set reduction through n2e with an identity layer."""
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[1] ** 2 if bilinear else rows.shape[1]
    layer = LayerParams(np.eye(d), "identity")
    return n2e(layer, kind, rows, [range(len(rows))], bilinear=bilinear)[0]


class TestOmega:
    def test_minmax_by_hand(self):
        got = omega("minmax", [[1, 4, 2], [3, 2, 2], [2, 0, 2]])
        np.testing.assert_array_equal(got, [2, 4, 0])

    def test_population_variance(self):
        np.testing.assert_allclose(omega("var", [[1.0], [3.0]]), [1.0])

    def test_singletons(self):
        np.testing.assert_array_equal(omega("mean", [[2.0, 5.0]]), [2.0, 5.0])
        np.testing.assert_array_equal(omega("minmax", [[2.0, 5.0]]), [0.0, 0.0])
        np.testing.assert_array_equal(omega("var", [[2.0, 5.0]]), [0.0, 0.0])

    def test_identical_vectors_collapse(self):
        rows = [[1.5, -2.0, 0.25]] * 4
        np.testing.assert_array_equal(omega("mean", rows), rows[0])
        np.testing.assert_array_equal(omega("var", rows), [0, 0, 0])
        np.testing.assert_array_equal(omega("minmax", rows), [0, 0, 0])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            omega("mean", np.zeros((0, 3)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            omega("median", [[1.0]])


class TestBilinearFlat:
    """The bilinear lift feeds the layer the row-major flattening of z z^T."""

    def bilinear_flat(self, v):
        return omega("mean", [v], bilinear=True)

    def test_by_hand(self):
        np.testing.assert_array_equal(self.bilinear_flat([1.0, 2.0]), [1, 2, 2, 4])

    def test_zero_vector(self):
        np.testing.assert_array_equal(self.bilinear_flat(np.zeros(3)), np.zeros(9))

    def test_row_major_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            v = rng.normal(size=d)
            flat = self.bilinear_flat(v)
            assert flat.shape == (d * d,)
            for i in range(d):
                for j in range(d):
                    assert flat[i * d + j] == flat[j * d + i]
                    assert flat[i * d + j] == v[i] * v[j]


@settings(max_examples=300)
@given(data=st.data())
def test_affine_forward_matches_the_column_loop(data):
    # t = 0 is a query whose nodes are all isolated: no layer-1 rows
    t = data.draw(st.integers(0, 40), label="t")
    d = data.draw(st.integers(1, 6), label="d")
    out = data.draw(st.integers(1, 7), label="out")
    bilinear = data.draw(st.booleans(), label="bilinear")
    # a block budget giving `width` columns per block, the last block short
    # whenever width does not divide out
    width = data.draw(st.integers(1, out + 1), label="width")
    per_column = 8 * max(t * d, 1)
    spare = data.draw(st.integers(0, per_column - 1), label="spare")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    weight = rng.normal(size=(out, d * d if bilinear else d))
    z = rng.normal(size=(t, d))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convolution, "_BLOCK_BYTES", width * per_column + spare)
        got = _affine_forward(weight, z, bilinear)
    want = loop_affine_forward(weight, z, bilinear)
    assert got.shape == (t, out) and got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_bilinear_forward_scratch_is_bounded():
    # the (columns, t, d) products stay within one block budget, or one
    # column where that is larger (here 384 KB); without blocks this call
    # would hold all 64 of them, 24 MB
    rng = np.random.default_rng(0)
    t, d, out = 1500, 32, 64
    weight, z = rng.normal(size=(out, d * d)), rng.normal(size=(t, d))
    tracemalloc.start()
    try:
        pre = _affine_forward(weight, z, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * convolution._BLOCK_BYTES + pre.nbytes


def test_layer_params_validation():
    LayerParams(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="2-d"):
        LayerParams(np.zeros(3))
    with pytest.raises(ValueError, match="NaN"):
        LayerParams(np.full((1, 2), np.nan))
    with pytest.raises(ValueError, match="activation"):
        LayerParams(np.zeros((1, 2)), activation="tanh")


def test_init_layer_shape_and_range():
    rng = np.random.default_rng(4)
    lp = init_layer(3, 5, rng, bilinear=True)
    assert lp.weight.shape == (3, 25)
    bound = np.sqrt(6.0 / (25 + 3))
    assert np.abs(lp.weight).max() <= bound
    assert init_layer(3, 5, rng, bilinear=False).weight.shape == (3, 5)


class TestE2N:
    def test_mean_of_two_edges_with_tag(self):
        h = build_hypergraph([[0], [0]])
        out = e2n(h, np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(out, [[0.5, 0.5, 1.0, 0.0]])

    def test_single_incident_edge_passes_through(self):
        h = build_hypergraph([[0, 1]])
        ef = np.array([[0.2, 0.7, 0.1]])
        out = e2n(h, ef, np.zeros((2, 1)))
        np.testing.assert_array_equal(out[0, :3], ef[0])
        np.testing.assert_array_equal(out[1, :3], ef[0])

    def test_isolated_node_gets_zero_aggregate(self):
        h = build_hypergraph([[0, 1]], num_nodes=3)
        out = e2n(h, np.ones((1, 2)), np.full((3, 1), 9.0))
        np.testing.assert_array_equal(out[2], [0.0, 0.0, 9.0])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            h = random_hypergraph(rng, max_nodes=12, max_edges=10)
            ef = rng.normal(size=(h.num_edges, int(rng.integers(1, 5))))
            nx = rng.normal(size=(h.num_nodes, int(rng.integers(1, 4))))
            np.testing.assert_allclose(e2n(h, ef, nx), naive_e2n(h, ef, nx), atol=1e-12)

    def test_row_count_mismatch_rejected(self):
        h = build_hypergraph([[0, 1]])
        with pytest.raises(ValueError, match="edge feature"):
            e2n(h, np.ones((3, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="node tag"):
            e2n(h, np.ones((1, 2)), np.ones((5, 1)))


def draw_edge_ids(data, h, form):
    """Random ``EdgeIds`` over ``h`` in one of three forms: ``relational``
    (a relation and a cluster id per edge), ``cluster`` (prediction's
    cluster ids alone) and ``masked`` (relational, some relations hidden);
    returns them with the one-hot table they stand for, built by hand."""
    m = h.num_edges
    k = data.draw(st.integers(1, 4), label="k")
    cluster = np.asarray(data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m),
                                   label="cluster"), dtype=np.int64)
    table = np.zeros((m, k))
    table[np.arange(m), cluster] = 1.0
    if form == "cluster":
        return EdgeIds(cluster, k), table
    r = data.draw(st.integers(1, 4), label="relations")
    relation = np.asarray(data.draw(st.lists(st.integers(0, r - 1), min_size=m, max_size=m),
                                    label="relation"), dtype=np.int64)
    types = np.zeros((m, r))
    types[np.arange(m), relation] = 1.0
    ids = EdgeIds(cluster, k, relation, r)
    if form == "masked":
        hidden = np.flatnonzero(np.asarray(data.draw(
            st.lists(st.booleans(), min_size=m, max_size=m), label="hidden"), dtype=bool))
        ids = ids.hide(hidden)
        types[hidden] = 0.0  # what zeroing a target's type slots gave
    return ids, np.concatenate([types, table], axis=1)


class TestEdgeIds:
    """Layer 1's count over ``EdgeIds`` against the dense one-hot table."""

    @settings(max_examples=300)
    @given(data=st.data(), form=st.sampled_from(["relational", "cluster", "masked"]))
    def test_count_equals_the_dense_aggregate(self, data, form):
        h = draw_hypergraph(data, max_nodes=10, max_edges=12, max_size=5)
        ids, table = draw_edge_ids(data, h, form)
        assert ids.shape == table.shape and np.array_equal(ids.dense(), table)
        nodes = np.flatnonzero(np.asarray(data.draw(
            st.lists(st.booleans(), min_size=h.num_nodes, max_size=h.num_nodes),
            label="nodes"), dtype=bool))
        node_x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")
                                       ).normal(size=(h.num_nodes, 2))
        got = _edge_aggregate(h, nodes, ids, node_x)
        want = _edge_aggregate(h, nodes, table, node_x)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_forward_and_lift_read_ids_as_the_table(self):
        rng = np.random.default_rng(12)
        h = random_hypergraph(rng, max_nodes=14, max_edges=12)
        m = h.num_edges
        ids = EdgeIds(rng.integers(0, 2, m), 2, rng.integers(0, 3, m), 3).hide([0])
        layers, _, node_x = tiny_model(rng, h, k=2, d_e=5)
        targets = [[0, 1], [2], list(range(h.num_nodes))]
        for lift in (None, True):
            outs = []
            for edge_init in (ids, ids.dense()):
                table = lift_edges("mean", h, edge_init, node_x) if lift else None
                outs.append(e2e_forward(layers, "mean", h, edge_init, node_x, targets,
                                        lift=table)[0])
            assert np.array_equal(*outs)


class TestN2E:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(15)
        for kind in ("mean", "var", "minmax"):
            for bilinear in (False, True):
                for _ in range(5):
                    n, d = 8, 3
                    feats = rng.normal(size=(n, d))
                    in_dim = d * d if bilinear else d
                    lp = LayerParams(rng.normal(size=(4, in_dim)), "relu")
                    sets = [
                        sorted(rng.choice(n, size=int(rng.integers(1, 5)), replace=False).tolist())
                        for _ in range(6)
                    ]
                    got = n2e(lp, kind, feats, sets, bilinear=bilinear)
                    want = naive_n2e(lp.weight, "relu", kind, feats, sets, bilinear)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_relu_clamps_negative_preactivations(self):
        lp = LayerParams(np.array([[-1.0]]), "relu")
        out = n2e(lp, "mean", np.array([[2.0]]), [[0]], bilinear=False)
        np.testing.assert_array_equal(out, [[0.0]])

    def test_empty_set_rejected(self):
        lp = LayerParams(np.ones((1, 1)))
        with pytest.raises(ValueError, match="empty"):
            n2e(lp, "mean", np.ones((2, 1)), [[0], []], bilinear=False)


@settings(max_examples=200)
@given(data=st.data())
def test_set_batch_groups_match_a_naive_grouping(data):
    # edge batches read the pin arrays; query batches may repeat members
    h = draw_hypergraph(data)
    picked = data.draw(st.lists(st.booleans(), min_size=h.num_edges, max_size=h.num_edges),
                       label="picked")
    needed = np.flatnonzero(np.asarray(picked, dtype=bool))
    targets = data.draw(st.lists(st.lists(st.integers(0, h.num_nodes - 1), min_size=1,
                                          max_size=6), max_size=6), label="targets")
    starts = h.edge_ptr[needed]
    cases = [
        (_SetBatch(h.pins, starts, h.edge_ptr[needed + 1] - starts),
         [h.edge_members[e] for e in needed.tolist()]),
        (_SetBatch(*_node_sets(targets, h.num_nodes)), targets),
    ]
    for batch, sets in cases:
        naive = naive_set_groups(sets)
        assert batch.count == len(sets)
        assert list(batch.groups) == sorted(naive)
        for size, (pos, ids) in batch.groups.items():
            assert pos.tolist() == [t for t, _ in naive[size]]
            assert ids.dtype == np.int64
            assert ids.tolist() == [members for _, members in naive[size]]


def tiny_model(rng, h, k=2, d_e=2, bilinear=True):
    node_x = rng.normal(size=(h.num_nodes, k))
    edge_init = rng.normal(size=(h.num_edges, d_e))
    layer1 = init_layer(3, d_e + k, rng, bilinear, "relu")
    layer2 = init_layer(2, 3 + k, rng, bilinear, "identity")
    return (layer1, layer2), edge_init, node_x


class TestE2EForward:
    def test_smallest_pipeline_shape(self):
        rng = np.random.default_rng(1)
        h = build_hypergraph([[0]])
        layers, edge_init, node_x = tiny_model(rng, h, k=1, d_e=1)
        out, cache = e2e_forward(layers, "mean", h, edge_init, node_x, [[0]])
        assert out.shape == (1, 2)
        assert isinstance(cache, E2ECache)

    def test_exactly_two_layers_required(self):
        rng = np.random.default_rng(1)
        h = build_hypergraph([[0]])
        layers, edge_init, node_x = tiny_model(rng, h, k=1, d_e=1)
        with pytest.raises(ValueError, match="two layers"):
            e2e_forward(layers[:1], "mean", h, edge_init, node_x, [[0]])

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        h = build_hypergraph([[0, 1]])
        layers, edge_init, node_x = tiny_model(rng, h)
        with pytest.raises(ValueError, match="row counts"):
            e2e_forward(layers, "mean", h, edge_init[:0], node_x, [[0]])
        with pytest.raises(ValueError, match="^unknown aggregation 'harmonic'$"):
            e2e_forward(layers, "mean", h, edge_init, node_x, [[0]], agg="harmonic")
        with pytest.raises(ValueError, match="^unknown omega kind 'median'$"):
            e2e_forward(layers, "median", h, edge_init, node_x, [[0]])

    @pytest.mark.parametrize("lifted", [False, True], ids=["blocked", "lifted"])
    def test_bilinear_weight_of_another_width_rejected(self, lifted):
        rng = np.random.default_rng(1)
        h = build_hypergraph([[0, 1], [1, 2]])
        (layer1, layer2), edge_init, node_x = tiny_model(rng, h)
        d = edge_init.shape[1] + node_x.shape[1]
        narrow = LayerParams(layer1.weight[:, :-1], layer1.activation)
        lift = lift_edges("mean", h, edge_init, node_x) if lifted else None
        with pytest.raises(ValueError, match=f"^weight expects input dim {d * d - 1}, "
                                             f"bilinear gives {d * d}$"):
            e2e_forward((narrow, layer2), "mean", h, edge_init, node_x, [[0]], lift=lift)

    @pytest.mark.parametrize("targets, position, node", [
        ([[-1]], 0, -1), ([[0, 1], [2, 3]], 1, 3), ([[0], [], [1, 4]], 2, 4)])
    def test_out_of_range_target_id_named(self, targets, position, node):
        # -1 would index node 2 and 3 would overrun the incidence rows
        rng = np.random.default_rng(1)
        h = build_hypergraph([[0, 1], [1, 2]])
        layers, edge_init, node_x = tiny_model(rng, h)
        with pytest.raises(ValueError, match=rf"^target {position} has node id {node}, "
                                             r"out of range \[0, 3\)$"):
            e2e_forward(layers, "mean", h, edge_init, node_x, targets)

    def test_member_order_never_matters(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            h = random_hypergraph(rng, max_nodes=10, max_edges=8)
            layers, edge_init, node_x = tiny_model(rng, h)
            kind = ("mean", "var", "minmax")[int(rng.integers(3))]
            targets = [list(h.edge_members[int(e)]) for e in rng.integers(0, h.num_edges, size=3)]
            base, _ = e2e_forward(layers, kind, h, edge_init, node_x, targets)
            shuffled = [list(rng.permutation(t)) for t in targets]
            again, _ = e2e_forward(layers, kind, h, edge_init, node_x, shuffled)
            np.testing.assert_array_equal(base, again)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_restriction_to_reachable_edges_changes_nothing(self, data):
        # each target's row equals its single-set call and the whole-graph
        # composition, on graphs with isolated nodes and repeated members
        n = data.draw(st.integers(2, 10), label="num_nodes")
        node = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.lists(node, min_size=1, max_size=4), min_size=1,
                                   max_size=8), label="edges")
        targets = data.draw(st.lists(st.lists(node, min_size=1, max_size=5), min_size=1,
                                     max_size=5), label="targets")
        kind = data.draw(st.sampled_from(OMEGA_KINDS), label="kind")
        bilinear = data.draw(st.booleans(), label="bilinear")
        h = build_hypergraph(edges, num_nodes=n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        layers, edge_init, node_x = tiny_model(rng, h, bilinear=bilinear)

        batched, _ = e2e_forward(layers, kind, h, edge_init, node_x, targets, bilinear=bilinear)
        ef1 = n2e(layers[0], kind, e2n(h, edge_init, node_x), h.edge_members, bilinear)
        whole = n2e(layers[1], kind, e2n(h, ef1, node_x), targets, bilinear)
        np.testing.assert_allclose(batched, whole, rtol=1e-12)
        for i, t in enumerate(targets):
            single, _ = e2e_forward(layers, kind, h, edge_init, node_x, [t], bilinear=bilinear)
            np.testing.assert_allclose(batched[i], single[0], rtol=1e-12)

    def test_isolated_target_nodes(self):
        # nodes without training edges, as unseen test entities are
        rng = np.random.default_rng(5)
        h = build_hypergraph([[0, 1], [1, 2]], num_nodes=5)
        for bilinear in (False, True):
            layers, edge_init, node_x = tiny_model(rng, h, bilinear=bilinear)
            ef1 = n2e(layers[0], "minmax", e2n(h, edge_init, node_x), h.edge_members, bilinear)
            for targets in ([[3, 4]], [[0, 3]]):
                out, cache = e2e_forward(layers, "minmax", h, edge_init, node_x, targets,
                                         bilinear=bilinear)
                whole = n2e(layers[1], "minmax", e2n(h, ef1, node_x), targets, bilinear)
                np.testing.assert_allclose(out, whole, rtol=1e-12)
                grads = e2e_backward(cache, np.ones_like(out))
                assert np.isfinite(grads["W1"]).all() and np.isfinite(grads["W2"]).all()
                if targets == [[3, 4]]:
                    assert cache.needed_edges.size == 0
                    assert not grads["W1"].any()


def cache_arrays(cache: E2ECache) -> list[np.ndarray]:
    """Every array a forward cache holds, in a fixed order."""
    inc2 = cache.inc2
    out = [cache.needed_edges, cache.z1, cache.pre1, inc2.data, inc2.indices, inc2.indptr,
           np.asarray(inc2.shape), cache.inv_deg2, cache.z2, cache.pre2,
           np.asarray(cache.packed)]
    for size in sorted(cache.batch2.groups):
        out += [*cache.batch2.groups[size], *cache.red2_cache[size]]
    return out


class TestInPlaceFieldReads:
    """Layer 1 reads ``edge_init`` through global edge columns and mean
    pooling adds member rows one position at a time; both must give what
    gathering the field's rows and reducing member blocks gave."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_match_the_gathering_oracle_exactly(self, data):
        h = draw_hypergraph(data, max_nodes=10, max_edges=10, max_size=5)
        node = st.integers(0, h.num_nodes - 1)
        targets = data.draw(st.lists(st.lists(node, min_size=1, max_size=6), min_size=1,
                                     max_size=6), label="targets")
        kind = data.draw(st.sampled_from(OMEGA_KINDS), label="kind")
        bilinear = data.draw(st.booleans(), label="bilinear")
        k, d_e = data.draw(st.integers(1, 3), label="k"), data.draw(st.integers(1, 3), label="d_e")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        layers, edge_init, node_x = tiny_model(rng, h, k=k, d_e=d_e, bilinear=bilinear)
        probe = rng.normal(size=(len(targets), layers[1].out_dim))

        out, cache = e2e_forward(layers, kind, h, edge_init, node_x, targets, bilinear=bilinear)
        want, oracle = gather_e2e_forward(layers, kind, h, edge_init, node_x, targets, bilinear)
        assert np.array_equal(out, want)
        got_arrays, want_arrays = cache_arrays(cache), cache_arrays(oracle)
        assert len(got_arrays) == len(want_arrays)
        for got, expected in zip(got_arrays, want_arrays):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        grads, oracle_grads = e2e_backward(cache, probe), e2e_backward(oracle, probe)
        for name in ("W1", "W2"):
            assert np.array_equal(grads[name], oracle_grads[name])

    def test_wide_field_copies_no_edge_rows(self):
        # 20k edges on 2k nodes: the 128 sets' 48 nodes reach 910 edges,
        # whose 760 members reach 12,232 edges, so gathering the layer-1
        # rows would copy 61% of the 10 MB table (a 7.5 MB peak; reading
        # it in place peaks at 2.0 MB)
        rng = np.random.default_rng(7)
        n, m, k = 2000, 20000, 4
        h = build_hypergraph([rng.choice(n, size=2, replace=False).tolist() for _ in range(m)],
                             num_nodes=n)
        edge_init = rng.uniform(size=(m, 64))
        node_x = np.eye(k)[np.arange(n) % k]
        layers = (init_layer(8, 64 + k, rng, False, "relu"),
                  init_layer(4, 8 + k, rng, False, "identity"))
        pool = rng.choice(n, size=48, replace=False)
        targets = [rng.choice(pool, size=3, replace=False).tolist() for _ in range(128)]
        tracemalloc.start()
        try:
            _, cache = e2e_forward(layers, "mean", h, edge_init, node_x, targets,
                                   bilinear=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        layer1_nodes = h.pins[np.isin(h.pin_edge, cache.needed_edges)]
        reached = np.unique(h.pin_edge[np.isin(h.pins, layer1_nodes)])
        assert reached.size > m // 2
        assert peak < edge_init.nbytes // 4


def draw_lift_case(data, bilinear):
    """A drawn graph, query sets, kind and tiny model."""
    h = draw_hypergraph(data, max_nodes=10, max_edges=10, max_size=5)
    node = st.integers(0, h.num_nodes - 1)
    targets = data.draw(st.lists(st.lists(node, min_size=1, max_size=6), min_size=1,
                                 max_size=6), label="targets")
    kind = data.draw(st.sampled_from(OMEGA_KINDS), label="kind")
    k, d_e = data.draw(st.integers(1, 3), label="k"), data.draw(st.integers(1, 3), label="d_e")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    layers, edge_init, node_x = tiny_model(rng, h, k=k, d_e=d_e, bilinear=bilinear)
    probe = rng.normal(size=(len(targets), layers[1].out_dim))
    return h, targets, kind, layers, edge_init, node_x, probe


def lifted_and_blocked(h, targets, kind, layers, edge_init, node_x, probe, bilinear):
    """Outputs, W1/W2 gradients and caches of one forward with the lift
    and one without."""
    lift = lift_edges(kind, h, edge_init, node_x, bilinear)
    runs = []
    for table in (lift, None):
        out, cache = e2e_forward(layers, kind, h, edge_init, node_x, targets,
                                 bilinear=bilinear, lift=table)
        runs.append((out, e2e_backward(cache, probe), cache))
    return runs


def assert_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rtol * np.abs(want).max(initial=0.0)


class TestLift:
    """Layer 1 from a table lifted once: ``lift_edges`` rows for every edge,
    read by ``e2e_forward(..., lift=)``."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_any_edge_subset_has_the_all_edge_rows(self, data):
        h = draw_hypergraph(data, max_nodes=10, max_edges=12, max_size=5)
        edges = np.flatnonzero(np.asarray(data.draw(
            st.lists(st.booleans(), min_size=h.num_edges, max_size=h.num_edges), label="pick"),
            dtype=bool))
        kind = data.draw(st.sampled_from(OMEGA_KINDS), label="kind")
        k, d_e = data.draw(st.integers(1, 3), label="k"), data.draw(st.integers(1, 4), label="d_e")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        edge_init = rng.normal(size=(h.num_edges, d_e))
        node_x = rng.normal(size=(h.num_nodes, k))
        table = lift_edges(kind, h, edge_init, node_x, False)
        subset = _edge_summaries(kind, h, edges, edge_init, node_x)
        assert table.shape == (h.num_edges, d_e + k)
        assert subset.dtype == table.dtype and np.array_equal(subset, table[edges])

    @settings(max_examples=200)
    @given(data=st.data())
    def test_bilinear_matches_the_blocked_kernels(self, data):
        case = draw_lift_case(data, bilinear=True)
        (out, grads, cache), (want, want_grads, _) = lifted_and_blocked(*case, True)
        assert cache.packed
        assert_close(out, want)
        for name in ("W1", "W2"):
            assert_close(grads[name], want_grads[name])
        d = math.isqrt(grads["W1"].shape[1])
        m = grads["W1"].reshape(-1, d, d)
        assert np.array_equal(m, m.transpose(0, 2, 1))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_w1_gradient_matches_the_per_output_oracle(self, data):
        # both paths take packed products: the table's rows, or the field's
        # column runs lifted on the spot
        case = draw_lift_case(data, bilinear=True)
        (_, grads, _), (_, want_grads, oracle) = lifted_and_blocked(*case, True)
        want = loop_bilinear_weight_grad(oracle.z1, layer1_pre_grad(oracle, case[-1]))
        assert_close(grads["W1"], want)
        assert_close(want_grads["W1"], want)

    @pytest.mark.parametrize("kind", OMEGA_KINDS)
    def test_w1_gradient_over_several_gathered_blocks(self, monkeypatch, kind):
        # a path of 9 edges: target nodes 0-4 reach edges 0-4, under 3/4 of
        # the table, so both passes gather them in blocks of 2, 2 and 1 rows
        rng = np.random.default_rng(12)  # a draw whose W1 gradient is nonzero for every kind
        h = build_hypergraph([[i, i + 1] for i in range(9)])
        layers, edge_init, node_x = tiny_model(rng, h)
        probe = rng.normal(size=(1, layers[1].out_dim))
        monkeypatch.setattr(convolution, "_BLOCK_BYTES", 8 * 10 * 2)  # two rows of 10 columns
        real, blocks = convolution._gathered, []

        def counting(lift, rows):
            for part, block in real(lift, rows):
                blocks.append(block.shape[0])
                yield part, block

        monkeypatch.setattr(convolution, "_gathered", counting)
        (_, grads, _), (_, want_grads, oracle) = lifted_and_blocked(
            h, [list(range(5))], kind, layers, edge_init, node_x, probe, True)
        assert blocks == [2, 2, 1, 2, 2, 1]  # forward, then backward
        want = loop_bilinear_weight_grad(oracle.z1, layer1_pre_grad(oracle, probe))
        assert np.abs(want).max() > 0
        for got in (grads["W1"], want_grads["W1"]):
            assert_close(got, want)
            m = got.reshape(-1, 4, 4)
            assert np.array_equal(m, m.transpose(0, 2, 1))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_without_bilinear_nothing_changes(self, data):
        case = draw_lift_case(data, bilinear=False)
        (out, grads, cache), (want, want_grads, oracle) = lifted_and_blocked(*case, False)
        assert np.array_equal(out, want)
        for name in ("W1", "W2"):
            assert np.array_equal(grads[name], want_grads[name])
        for got, expected in zip(cache_arrays(cache), cache_arrays(oracle), strict=True):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.parametrize("target, needed, gathers",
                             [([0], 1, True), ([0, 1, 2], 3, True), ([0, 1, 2, 3], 4, False)])
    def test_gathers_the_field_in_blocks_unless_it_covers_most_of_the_table(
            self, monkeypatch, target, needed, gathers):
        # a path of 5 edges: nodes 0 to i reach edges 0 to i
        rng = np.random.default_rng(3)
        h = build_hypergraph([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])
        layers, edge_init, node_x = tiny_model(rng, h)
        probe = rng.normal(size=(1, layers[1].out_dim))
        monkeypatch.setattr(convolution, "_BLOCK_BYTES", 8 * 10)  # one row of 10 columns
        real, blocks = convolution._gathered, []

        def counting(lift, rows):
            blocks.append(len(list(real(lift, rows))))
            return real(lift, rows)

        monkeypatch.setattr(convolution, "_gathered", counting)
        (out, grads, cache), (want, want_grads, _) = lifted_and_blocked(
            h, [target], "var", layers, edge_init, node_x, probe, True)
        assert cache.needed_edges.size == needed
        assert cache.z1.shape == (5, 10)  # the table itself: d = 4 packs into 10 columns
        assert blocks == ([needed, needed] if gathers else [])  # forward, then backward
        assert_close(out, want)
        assert_close(grads["W1"], want_grads["W1"])

    def test_a_small_field_copies_no_large_block_of_the_table(self):
        # 1,000 two-member edges on 2,000 nodes, d = 32: a 4.2 MB table whose
        # 462 field rows are 1.95 MB; gathered in blocks of 256 KiB, forward
        # and backward peak at 0.77 MB
        rng = np.random.default_rng(8)
        n, m, k = 2000, 1000, 2
        h = build_hypergraph([rng.choice(n, size=2, replace=False).tolist() for _ in range(m)],
                             num_nodes=n)
        edge_init = rng.uniform(size=(m, 30))
        node_x = np.eye(k)[np.arange(n) % k]
        layers = (init_layer(8, 32, rng, True, "relu"), init_layer(4, 8 + k, rng, True, "identity"))
        targets = [h.pins[h.edge_ptr[e]:h.edge_ptr[e + 1]].tolist() for e in range(0, m, 5)]
        lift = lift_edges("mean", h, edge_init, node_x)
        tracemalloc.start()
        try:
            out, cache = e2e_forward(layers, "mean", h, edge_init, node_x, targets, lift=lift)
            e2e_backward(cache, np.ones_like(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        field_bytes = cache.needed_edges.size * lift.shape[1] * 8
        assert 0.3 * m < cache.needed_edges.size < 0.75 * m
        assert peak < field_bytes / 2

    def test_packed_rows_are_the_upper_triangle_of_the_outer_product(self):
        rng = np.random.default_rng(5)
        h = random_hypergraph(rng)
        _, edge_init, node_x = tiny_model(rng, h, k=2, d_e=3)
        z = lift_edges("minmax", h, edge_init, node_x, False)
        lift = lift_edges("minmax", h, edge_init, node_x, True)
        rows, cols = np.triu_indices(5)
        assert np.array_equal(lift, z[:, rows] * z[:, cols])

    def test_above_the_cap_there_is_no_table(self, monkeypatch):
        rng = np.random.default_rng(6)
        h = random_hypergraph(rng)
        _, edge_init, node_x = tiny_model(rng, h, k=2, d_e=2)
        size = 8 * h.num_edges * 10
        monkeypatch.setattr(convolution, "_LIFT_BYTES", size)
        assert lift_edges("mean", h, edge_init, node_x).shape == (h.num_edges, 10)
        monkeypatch.setattr(convolution, "_LIFT_BYTES", size - 1)
        assert lift_edges("mean", h, edge_init, node_x) is None

    def test_mismatched_table_rejected(self):
        rng = np.random.default_rng(7)
        h = build_hypergraph([[0, 1], [1, 2]])
        layers, edge_init, node_x = tiny_model(rng, h)
        lift = lift_edges("mean", h, edge_init, node_x, False)
        with pytest.raises(ValueError, match="lift"):
            e2e_forward(layers, "mean", h, edge_init, node_x, [[0]], lift=lift)


class TestE2EBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(2)
        h = build_hypergraph([[0, 1], [1, 2]])
        layers, edge_init, node_x = tiny_model(rng, h)
        out, cache = e2e_forward(layers, "var", h, edge_init, node_x, [[0, 1]])
        grads = e2e_backward(cache, np.zeros_like(out))
        assert not grads["W1"].any()
        assert not grads["W2"].any()

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(2)
        h = build_hypergraph([[0, 1]])
        layers, edge_init, node_x = tiny_model(rng, h)
        out, cache = e2e_forward(layers, "mean", h, edge_init, node_x, [[0]])
        with pytest.raises(ValueError, match="stale"):
            e2e_backward(cache, np.zeros((out.shape[0] + 1, out.shape[1])))

    def test_bilinear_gradient_numerically(self):
        # d/dv of sum(v v^T) against all-ones upstream is 2 * sum(v) per entry
        v = np.array([1.0, 2.0])

        def f():
            return float(np.outer(v, v).sum())

        np.testing.assert_allclose(numeric_grad(f, v), [6.0, 6.0], rtol=1e-6)

    def test_weight_gradients_match_finite_differences(self):
        rng = np.random.default_rng(99)
        worst = gradcheck_max_error(rng, trials=4, kinds=("mean", "var", "minmax"),
                                    bilinears=(False, True))
        assert worst < 1e-5
