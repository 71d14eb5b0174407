import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv.hypergraph import build_hypergraph
from hyperconv.partition import (
    ClusterAssignment,
    coarse_weights,
    coarsen,
    cut,
    fm_refine,
    partition,
)

from helpers import (
    draw_hypergraph,
    optimal_balanced_cut,
    random_hypergraph,
    recount_cut,
    uniform_hypergraph,
)


def assignment(labels, k, eps=0.05):
    return ClusterAssignment(np.asarray(labels, dtype=np.int64), k, eps)


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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
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

    def test_labels_frozen(self):
        c = assignment([0, 1], 2)
        with pytest.raises(ValueError):
            c.cluster_of[0] = 1


class TestCoarsen:
    def test_two_nodes_sharing_an_edge_merge(self):
        level = coarsen(build_hypergraph([[0, 1]]))
        assert level.coarse.num_nodes == 1
        assert level.coarse.num_edges == 0  # singleton image dropped
        assert level.projection.tolist() == [0, 0]
        assert level.progress

    def test_disconnected_singleton_survives(self):
        level = coarsen(build_hypergraph([[0, 1]], num_nodes=3))
        assert level.coarse.num_nodes == 2
        assert level.projection.tolist() == [0, 0, 1]

    def test_merge_groups_capped_at_four(self):
        level = coarsen(build_hypergraph([list(range(10))]))
        sizes = np.bincount(level.projection)
        assert sizes.max() == 4

    def test_projection_total_and_surjective(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = random_hypergraph(rng, max_nodes=30, max_edges=20)
            level = coarsen(h)
            proj = level.projection
            assert proj.min() >= 0
            assert set(proj.tolist()) == set(range(level.coarse.num_nodes))

    def test_lifted_assignment_preserves_cut(self):
        # the cut of any coarse labeling equals the cut of its lift, since
        # merged nodes land in one cluster and singleton images are dropped
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = random_hypergraph(rng, max_nodes=30, max_edges=25)
            level = coarsen(h)
            k = 3
            coarse_labels = rng.integers(0, k, size=level.coarse.num_nodes)
            fine_labels = coarse_labels[level.projection]
            assert recount_cut(level.coarse, coarse_labels) == recount_cut(
                h, fine_labels
            )

    def test_weights_accumulate(self):
        h = build_hypergraph([[0, 1], [2, 3]], num_nodes=5)
        level = coarsen(h)
        w = coarse_weights(level, np.ones(5, dtype=np.int64))
        assert w.tolist() == [2, 2, 1]

    def test_no_progress_flag(self):
        h = build_hypergraph([[0], [1]], num_nodes=2)  # nothing to merge
        assert not coarsen(h).progress


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


class TestPartition:
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

    def test_near_optimal_on_tiny_bipartitions(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            h = random_hypergraph(rng, max_nodes=10, max_edges=6)
            achieved = cut(h, partition(h, 2))
            assert achieved <= 1.5 * optimal_balanced_cut(h, 2)


# sha256 prefixes of ``cluster_of``: the move order and tie-breaks are the
# partitioner's contract, so a faster partitioner must reproduce them exactly
PINNED_ASSIGNMENTS = {2: "95b163ef585d8915", 16: "69c3f259d55007d7"}


@pytest.mark.parametrize("k", sorted(PINNED_ASSIGNMENTS))
def test_assignment_pinned_on_a_multilevel_instance(k):
    # 5k random 4-uniform edges on 2.5k nodes coarsen through several levels
    h = uniform_hypergraph(seed=0, num_edges=5000, arity=4)
    c = partition(h, k)
    assert hashlib.sha256(c.cluster_of.tobytes()).hexdigest()[:16] == PINNED_ASSIGNMENTS[k]
