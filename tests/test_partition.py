import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv.hypergraph import build_hypergraph
from hyperconv.partition import (
    ClusterAssignment,
    MERGE_GROUP_CAP,
    _bfs_order,
    _edge_order,
    _initial_partition,
    _RefineState,
    _refine,
    coarsen,
    cut,
    fm_refine,
    partition,
    pin_counts,
)

from helpers import (
    draw_hypergraph,
    naive_bfs_order,
    naive_edge_order,
    naive_gains,
    naive_refine,
    optimal_balanced_cut,
    random_hypergraph,
    recount_cut,
    uniform_hypergraph,
)


def assignment(labels, k, eps=0.05):
    return ClusterAssignment(np.asarray(labels, dtype=np.int64), k, eps)


def draw_balanced(data, n):
    """k and a labeling dealt round-robin over a drawn node order."""
    k = data.draw(st.integers(1, min(n, 4)), label="k")
    order = data.draw(st.permutations(range(n)), label="order")
    labels = np.zeros(n, dtype=np.int64)
    labels[order] = np.arange(n) % k
    return assignment(labels, k)


class TestCut:
    def test_single_cluster_contributes_zero(self):
        h = build_hypergraph([[0, 1, 2]])
        assert cut(h, assignment([0, 0, 0], 1)) == 0

    def test_fully_spanning_edge(self):
        h = build_hypergraph([[0, 1, 2]])
        assert cut(h, assignment([0, 1, 2], 3)) == 2

    def test_triangle_by_hand(self):
        # edges {0,1} and {1,2} and {0,2}; node 2 alone in cluster 1
        h = build_hypergraph([[0, 1], [1, 2], [0, 2]])
        assert cut(h, assignment([0, 0, 1], 2)) == 2

    def test_node_count_mismatch_rejected(self):
        h = build_hypergraph([[0, 1]])
        with pytest.raises(ValueError, match="covers"):
            cut(h, assignment([0, 1, 0], 2))

    def test_matches_recount_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            h = random_hypergraph(rng)
            k = int(rng.integers(1, 5))
            labels = rng.integers(0, k, size=h.num_nodes)
            c = ClusterAssignment(labels, k, balance_epsilon=10.0)
            assert cut(h, c) == recount_cut(h, labels)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_matches_recount_property(self, data):
        h = draw_hypergraph(data)
        k = data.draw(st.integers(1, 5), label="k")
        n = h.num_nodes
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
                           label="labels")
        assert cut(h, assignment(labels, k, eps=10.0)) == recount_cut(h, labels)


class TestClusterAssignment:
    def test_capacity_bound(self):
        c = assignment([0] * 7, 2)
        # ceil(1.05 * 7 / 2) = ceil(3.675) = 4
        assert c.capacity() == 4
        assert not c.is_balanced()
        assert assignment([0, 0, 0, 0, 1, 1, 1], 2).is_balanced()

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            assignment([0, 2], 2)
        with pytest.raises(ValueError, match=">= 1"):
            assignment([0], 0)

    @pytest.mark.parametrize("labels, message", [
        ([0, 1.6, True], r"^cluster_of\[1\] is 1\.6, not an integer$"),
        ([0, True], r"^cluster_of\[1\] is True, not an integer$"),
        (np.array([0.0, 1.0]),
         rf"^cluster_of\[0\] is {re.escape(repr(np.float64(0)))}, not an integer$"),
    ], ids=["float", "bool", "float-array"])
    def test_non_integer_label_rejected(self, labels, message):
        # a truncating cast would have stored [0, 1, 1]
        with pytest.raises(ValueError, match=message):
            ClusterAssignment(labels, 2)

    @pytest.mark.parametrize("labels, shape", [(5, r"\(\)"), ([[0, 1], [1, 0]], r"\(2, 2\)")],
                             ids=["scalar", "2-d"])
    def test_labels_not_one_dimensional_rejected(self, labels, shape):
        # a scalar once failed with "'int' object is not iterable"
        with pytest.raises(ValueError, match=rf"^cluster_of has shape {shape}, not one dimension$"):
            ClusterAssignment(labels, 8)

    def test_labels_frozen(self):
        c = assignment([0, 1], 2)
        with pytest.raises(ValueError):
            c.cluster_of[0] = 1

    def test_caller_array_stays_writeable(self):
        labels = np.array([0, 1, 0, 1])
        c = ClusterAssignment(labels, 2)
        labels[0] = 1
        assert c.cluster_of.tolist() == [0, 1, 0, 1]


def unit_coarsen(h):
    """``coarsen`` with unit weights and a weight cap no group can reach."""
    return coarsen(h, np.ones(h.num_nodes, dtype=np.int64), h.num_nodes)


class TestCoarsen:
    def test_two_nodes_sharing_an_edge_merge(self):
        coarse, projection, weights = unit_coarsen(build_hypergraph([[0, 1]]))
        assert coarse.num_nodes == 1
        assert coarse.num_edges == 0  # singleton image dropped
        assert projection.tolist() == [0, 0]
        assert weights.tolist() == [2]

    def test_disconnected_singleton_survives(self):
        coarse, projection, _ = unit_coarsen(build_hypergraph([[0, 1]], num_nodes=3))
        assert coarse.num_nodes == 2
        assert projection.tolist() == [0, 0, 1]

    def test_merge_groups_capped_at_four(self):
        _, projection, _ = unit_coarsen(build_hypergraph([list(range(10))]))
        sizes = np.bincount(projection)
        assert sizes.max() == 4

    def test_projection_total_and_surjective(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = random_hypergraph(rng, max_nodes=30, max_edges=20)
            coarse, proj, _ = unit_coarsen(h)
            assert proj.min() >= 0
            assert set(proj.tolist()) == set(range(coarse.num_nodes))

    def test_lifted_assignment_preserves_cut(self):
        # the cut of any coarse labeling equals the cut of its lift, since
        # merged nodes land in one cluster and singleton images are dropped
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = random_hypergraph(rng, max_nodes=30, max_edges=25)
            coarse, projection, _ = unit_coarsen(h)
            k = 3
            coarse_labels = rng.integers(0, k, size=coarse.num_nodes)
            fine_labels = coarse_labels[projection]
            assert recount_cut(coarse, coarse_labels) == recount_cut(h, fine_labels)

    def test_weights_accumulate(self):
        h = build_hypergraph([[0, 1], [2, 3]], num_nodes=5)
        _, _, weights = unit_coarsen(h)
        assert weights.tolist() == [2, 2, 1]

    @settings(max_examples=200)
    @given(data=st.data())
    def test_coarse_graph_is_the_projected_image_property(self, data):
        h = draw_hypergraph(data, max_nodes=20, max_edges=15)
        coarse, projection, _ = unit_coarsen(h)
        proj = projection.tolist()
        # coarse ids appear in increasing order along the fine nodes
        firsts = list(dict.fromkeys(proj))
        assert firsts == list(range(coarse.num_nodes))
        images = [tuple(sorted({proj[v] for v in m})) for m in h.edge_members]
        assert coarse.edge_members == tuple(i for i in images if len(i) >= 2)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_weighted_coarsen_property(self, data):
        h = draw_hypergraph(data, max_nodes=20, max_edges=15)
        n = h.num_nodes
        weights = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n),
                            label="weights")
        cap = data.draw(st.integers(max(weights), sum(weights)), label="weight_cap")
        coarse, projection, coarse_weights = coarsen(h, np.array(weights, dtype=np.int64), cap)
        assert not projection.flags.writeable
        proj = projection.tolist()
        assert len(proj) == n and set(proj) == set(range(coarse.num_nodes))
        groups = [[v for v in range(n) if proj[v] == c] for c in range(coarse.num_nodes)]
        carried = [sum(weights[v] for v in group) for group in groups]
        assert coarse_weights.dtype == np.int64 and coarse_weights.tolist() == carried
        assert sum(carried) == sum(weights)
        for group, weight in zip(groups, carried):
            if len(group) >= 2:
                assert len(group) <= MERGE_GROUP_CAP and weight <= cap
        images = [tuple(sorted({proj[v] for v in m})) for m in h.edge_members]
        assert coarse.edge_members == tuple(i for i in images if len(i) >= 2)
        # the first edge to merge finds every member unmatched and merges
        # its first neighbouring pair whose weights fit together
        fits = any(weights[a] + weights[b] <= cap
                   for m in h.edge_members for a, b in zip(m, m[1:]))
        assert (coarse.num_nodes == n) == (not fits)

    def test_no_progress_flag(self):
        # nothing to merge: the node count is kept
        coarse, projection, _ = unit_coarsen(build_hypergraph([[0], [1]], num_nodes=2))
        assert coarse.num_nodes == 2
        assert projection.tolist() == [0, 1]


class TestFMRefine:
    def test_optimal_input_is_a_fixed_point(self):
        h = build_hypergraph([[0, 1], [2, 3]])
        c = assignment([0, 0, 1, 1], 2)
        out = fm_refine(h, c)
        assert out.cluster_of.tolist() == [0, 0, 1, 1]
        assert cut(h, out) == 0

    def test_untangles_the_four_node_pair(self):
        h = build_hypergraph([[0, 1], [2, 3]])
        c = assignment([0, 1, 0, 1], 2)  # cut 2
        out = fm_refine(h, c)
        assert cut(h, out) == 0
        assert out.is_balanced()

    def test_empty_hypergraph_is_a_fixed_point(self):
        h = build_hypergraph([], num_nodes=0)
        assert fm_refine(h, assignment([], 2)).num_nodes == 0

    def test_assignment_of_another_node_count_rejected(self):
        h = build_hypergraph([[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="^assignment does not match hypergraph$"):
            fm_refine(h, assignment([0, 0, 1], 2))

    def test_unbalanced_input_rejected(self):
        h = build_hypergraph([[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="balance"):
            fm_refine(h, assignment([0, 0, 0, 0], 2))

    def test_cut_never_increases_across_passes(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            h = random_hypergraph(rng, max_nodes=14, max_edges=10)
            k = 2
            cap_ok = False
            while not cap_ok:
                labels = rng.integers(0, k, size=h.num_nodes)
                c = ClusterAssignment(labels, k)
                cap_ok = c.is_balanced()
            start = cut(h, c)
            per_pass: list[int] = []
            out = fm_refine(h, c, pass_cuts=per_pass)
            trail = [start] + per_pass + [cut(h, out)]
            assert all(b <= a for a, b in zip(trail, trail[1:]))
            assert out.is_balanced()

    @settings(max_examples=200)
    @given(data=st.data())
    def test_refinement_is_balanced_and_monotone_property(self, data):
        h = draw_hypergraph(data)
        c = draw_balanced(data, h.num_nodes)
        per_pass: list[int] = []
        out = fm_refine(h, c, pass_cuts=per_pass)
        trail = [cut(h, c)] + per_pass
        assert all(b <= a for a, b in zip(trail, trail[1:]))
        assert cut(h, out) == trail[-1]
        assert out.is_balanced()

    @settings(max_examples=200)
    @given(data=st.data())
    def test_move_order_with_mixed_weights_matches_a_recount_per_move_property(self, data):
        # coarse levels refine nodes of unequal weight; the pinned hashes only
        # sample them. Dense graphs, so a move can lower a gain that stays positive
        h = draw_hypergraph(data, max_nodes=16, max_edges=40)
        n = h.num_nodes
        k = data.draw(st.integers(2, 4), label="k")
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                             max_size=n), label="labels"))
        weights = np.array(data.draw(st.lists(st.integers(1, 5), min_size=n,
                                              max_size=n), label="weights"))
        cap = data.draw(st.integers(int(weights.max()), int(weights.sum())), label="cap")
        want_labels, want_cuts = naive_refine(h, labels, k, weights, cap)
        pass_cuts: list[int] = []
        got = _refine(h, labels.copy(), k, weights, cap, pass_cuts)
        assert got.tolist() == want_labels
        assert pass_cuts == want_cuts


def assert_tops_match_a_recount(state, locked):
    """``live``, and each column's ``top`` against the first maximum of that
    column of the gain table with locked rows, and nodes without room in
    the column, at 0."""
    loads = np.bincount(state.labels, weights=state.weights, minlength=state.k)
    assert (state.loads == loads).all()
    assert (state.live == np.where(locked[:, None], 0, state.gain)).all()
    masked = np.where(state.weights[:, None] + loads <= state.cap, state.live, 0)
    best, node = masked.max(axis=0), masked.argmax(axis=0)
    n = state.h.num_nodes
    assert (np.maximum(state.top, 0) == np.where(best > 0, best * n - node, 0)).all()


def top_of(state, c):
    """Column c's top as (gain, node)."""
    n = state.h.num_nodes
    return -(-int(state.top[c]) // n), -int(state.top[c]) % n


class TestGainTable:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_moves_keep_the_table_equal_to_a_recount_property(self, data):
        h = draw_hypergraph(data)
        k = data.draw(st.integers(2, 4), label="k")
        n = h.num_nodes
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                             max_size=n), label="labels"))
        # mixed weights under a tight cap, so targets fill up and free up
        weights = np.array(data.draw(st.lists(st.integers(1, 3), min_size=n,
                                              max_size=n), label="weights"))
        heaviest = int(weights.max())
        cap = data.draw(st.integers(heaviest, heaviest + int(weights.sum()) // k), label="cap")
        state = _RefineState(h, labels, k, weights, cap)
        assert (state.gain == naive_gains(h, labels, state.counts)).all()
        locked = np.zeros(n, dtype=bool)
        assert_tops_match_a_recount(state, locked)
        moves = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(1, k - 1)), max_size=8),
                          label="moves")
        for v, shift in moves:
            table = state.gain.copy()
            others = state.apply(v, (int(state.labels[v]) + shift) % k)
            locked[v] = True
            assert (state.counts == pin_counts(h, state.labels, k)).all()
            assert (state.gain == naive_gains(h, state.labels, state.counts)).all()
            assert_tops_match_a_recount(state, locked)
            # the pass re-reads only v's and the returned rows, so no other
            # row may move
            outside = np.setdiff1d(np.arange(n), np.append(others, v))
            assert (state.gain[outside] == table[outside]).all()

    def test_a_filling_cluster_hands_its_top_to_a_lighter_node(self):
        # cluster 1 is worth 2 to node 0 (weight 2) and 1 to node 3; node 5
        # shares no edge with either, so only the load its moves change
        # can move the top of column 1
        h = build_hypergraph([[0, 1], [0, 2], [3, 4], [5, 6]], num_nodes=7)
        labels = np.array([0, 1, 1, 0, 1, 2, 2])
        weights = np.array([2, 1, 1, 1, 1, 1, 1])
        state = _RefineState(h, labels, 3, weights, cap=5)
        assert top_of(state, 1) == (2, 0)
        state.apply(5, 1)  # cluster 1 has room for one unit only
        assert top_of(state, 1) == (1, 3)
        state.apply(5, 2)  # and for two again
        assert top_of(state, 1) == (2, 0)


class TestPartition:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_seeding_orders_match_loops_over_the_tuple_views_property(self, data):
        h = draw_hypergraph(data, max_nodes=20, max_edges=15)
        assert _bfs_order(h) == naive_bfs_order(h)
        assert _edge_order(h) == naive_edge_order(h)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_round_robin_seed_fits_a_slack_of_one_node_property(self, data):
        weights = np.array(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=40),
                                     label="weights"))
        k = data.draw(st.integers(1, weights.size), label="k")
        # the tightest cap the seed promises to meet: unit weights need no slack
        heaviest = int(weights.max())
        cap = -(-int(weights.sum()) // k) + (heaviest if heaviest > 1 else 0)
        loads = np.bincount(_initial_partition(weights, k), weights=weights, minlength=k)
        assert loads.max() <= cap

    def test_k1_is_trivial(self):
        h = build_hypergraph([[0, 1], [1, 2]])
        c = partition(h, 1)
        assert c.cluster_of.tolist() == [0, 0, 0]
        assert cut(h, c) == 0

    def test_k_bounds(self):
        h = build_hypergraph([[0, 1]])
        with pytest.raises(ValueError, match="exceeds"):
            partition(h, 3)
        with pytest.raises(ValueError, match=">= 1"):
            partition(h, 0)

    def test_two_blobs_with_a_bridge_separate(self):
        # every triple inside each 4-node blob, one bridge pair between them
        blob_a = [list(t) for t in itertools.combinations(range(4), 3)]
        blob_b = [[v + 4 for v in t] for t in itertools.combinations(range(4), 3)]
        h = build_hypergraph(blob_a + blob_b + [[3, 4]])
        c = partition(h, 2)
        assert cut(h, c) == 1
        labels = c.cluster_of
        assert len(set(labels[:4].tolist())) == 1
        assert len(set(labels[4:].tolist())) == 1
        assert labels[0] != labels[4]

    def test_deterministic_for_fixed_inputs(self):
        rng = np.random.default_rng(2)
        h = random_hypergraph(rng, max_nodes=40, max_edges=60)
        a = partition(h, 4)
        b = partition(h, 4)
        np.testing.assert_array_equal(a.cluster_of, b.cluster_of)

    def test_always_balanced(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            h = random_hypergraph(rng, max_nodes=30, max_edges=25)
            k = int(rng.integers(2, min(6, h.num_nodes) + 1))
            assert partition(h, k).is_balanced()

    @pytest.mark.parametrize("eps, k", [(0.0, 4), (0.0, 16), (0.01, 16)])
    def test_balanced_under_a_tight_bound(self, eps, k):
        # a cap slack below MERGE_GROUP_CAP: coarse nodes must not outweigh it
        h = uniform_hypergraph(seed=0, num_edges=2000, arity=4)
        assert partition(h, k, balance_epsilon=eps).is_balanced()

    def test_negative_epsilon_rejected(self):
        h = build_hypergraph([[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="balance_epsilon"):
            partition(h, 2, balance_epsilon=-0.1)

    @pytest.mark.parametrize("eps", [math.inf, 1e308])
    def test_epsilon_without_a_finite_bound_rejected(self, eps):
        h = build_hypergraph([[v, (v + 1) % 40] for v in range(40)])
        with pytest.raises(ValueError, match="^balance_epsilon .* not finite$"):
            partition(h, 2, balance_epsilon=eps)
        c = ClusterAssignment(np.zeros(40, dtype=np.int64), 2, balance_epsilon=eps)
        with pytest.raises(ValueError, match="^balance_epsilon .* not finite$"):
            c.is_balanced()

    def test_near_optimal_on_tiny_bipartitions(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            h = random_hypergraph(rng, max_nodes=10, max_edges=6)
            achieved = cut(h, partition(h, 2))
            assert achieved <= 1.5 * optimal_balanced_cut(h, 2)


# sha256 prefixes of ``cluster_of``: the move order and tie-breaks are the
# partitioner's contract, so a faster partitioner must reproduce them exactly
PINNED_ASSIGNMENTS = {
    2: "95b163ef585d8915",
    3: "b6359adf87f65b41",
    8: "f076bd4f77ec6db1",
    16: "69c3f259d55007d7",
}


@pytest.mark.parametrize("k", sorted(PINNED_ASSIGNMENTS))
def test_assignment_pinned_on_a_multilevel_instance(k):
    # 5k random 4-uniform edges on 2.5k nodes coarsen through several levels
    h = uniform_hypergraph(seed=0, num_edges=5000, arity=4)
    c = partition(h, k)
    assert hashlib.sha256(c.cluster_of.tobytes()).hexdigest()[:16] == PINNED_ASSIGNMENTS[k]
