import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv import convolution
from hyperconv.convolution import (
    AGG_KINDS,
    OMEGA_KINDS,
    E2ECache,
    LayerParams,
    _flat_sets,
    _affine_forward,
    _SetBatch,
    e2e_backward,
    e2e_forward,
    e2n,
    init_layer,
    n2e,
)
from hyperconv.hypergraph import build_hypergraph

from helpers import (
    draw_hypergraph,
    gather_e2e_forward,
    gradcheck_max_error,
    loop_affine_forward,
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

    def test_harmonic_aggregation_by_hand(self):
        h = build_hypergraph([[0], [0]])
        ef = np.array([[1.0], [3.0]])
        out = e2n(h, ef, np.zeros((1, 1)), agg="harmonic")
        eps = 1e-6
        expected = 2.0 / (1.0 / (1.0 + eps) + 1.0 / (3.0 + eps))
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-12)


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
        (_SetBatch(*_flat_sets(targets)), targets),
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
        agg = data.draw(st.sampled_from(AGG_KINDS), label="agg")
        bilinear = data.draw(st.booleans(), label="bilinear")
        h = build_hypergraph(edges, num_nodes=n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        layers, edge_init, node_x = tiny_model(rng, h, bilinear=bilinear)

        batched, _ = e2e_forward(layers, kind, h, edge_init, node_x, targets,
                                 bilinear=bilinear, agg=agg)
        ef1 = n2e(layers[0], kind, e2n(h, edge_init, node_x, agg), h.edge_members, bilinear)
        whole = n2e(layers[1], kind, e2n(h, ef1, node_x, agg), targets, bilinear)
        np.testing.assert_allclose(batched, whole, rtol=1e-12)
        for i, t in enumerate(targets):
            single, _ = e2e_forward(layers, kind, h, edge_init, node_x, [t],
                                    bilinear=bilinear, agg=agg)
            np.testing.assert_allclose(batched[i], single[0], rtol=1e-12)

    def test_isolated_target_nodes(self):
        # nodes without training edges, as unseen test entities are
        rng = np.random.default_rng(5)
        h = build_hypergraph([[0, 1], [1, 2]], num_nodes=5)
        for agg in AGG_KINDS:
            for bilinear in (False, True):
                layers, edge_init, node_x = tiny_model(rng, h, bilinear=bilinear)
                ef1 = n2e(layers[0], "minmax", e2n(h, edge_init, node_x, agg),
                          h.edge_members, bilinear)
                for targets in ([[3, 4]], [[0, 3]]):
                    out, cache = e2e_forward(layers, "minmax", h, edge_init, node_x,
                                             targets, bilinear=bilinear, agg=agg)
                    whole = n2e(layers[1], "minmax", e2n(h, ef1, node_x, agg), targets,
                                bilinear)
                    np.testing.assert_allclose(out, whole, rtol=1e-12)
                    grads = e2e_backward(cache, np.ones_like(out))
                    assert np.isfinite(grads["W1"]).all() and np.isfinite(grads["W2"]).all()
                    if targets == [[3, 4]]:
                        assert cache.needed_edges.size == 0
                        assert not grads["W1"].any()


def cache_arrays(cache: E2ECache) -> list[np.ndarray]:
    """Every array a forward cache holds, in a fixed order."""
    aux = cache.e2n2_aux if isinstance(cache.e2n2_aux, tuple) else (cache.e2n2_aux,)
    inc2 = cache.inc2
    out = [cache.needed_edges, cache.z1, cache.pre1, inc2.data, inc2.indices, inc2.indptr,
           np.asarray(inc2.shape), *aux, cache.z2, cache.pre2]
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
        agg = data.draw(st.sampled_from(AGG_KINDS), label="agg")
        bilinear = data.draw(st.booleans(), label="bilinear")
        k, d_e = data.draw(st.integers(1, 3), label="k"), data.draw(st.integers(1, 3), label="d_e")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        layers, edge_init, node_x = tiny_model(rng, h, k=k, d_e=d_e, bilinear=bilinear)
        if agg == "harmonic":
            edge_init = np.abs(edge_init)  # reciprocals of positive features, as one-hots give
        probe = rng.normal(size=(len(targets), layers[1].out_dim))

        out, cache = e2e_forward(layers, kind, h, edge_init, node_x, targets,
                                 bilinear=bilinear, agg=agg)
        want, oracle = gather_e2e_forward(layers, kind, h, edge_init, node_x, targets,
                                          bilinear, agg)
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
