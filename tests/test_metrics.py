import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconv.metrics import accuracy, auc, hit_at, mrr, rank_of_true


def sort_rank_oracle(scores, true_index):
    s = scores[true_index]
    rank = 1
    for j, x in enumerate(scores):
        if j == true_index:
            continue
        if x > s or x == s:  # pessimistic: ties push the true item down
            rank += 1
    return rank


def pairwise_auc_oracle(pos, neg):
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# few distinct values, so most draws tie; the infinities tie with themselves
TIE_HEAVY_SCORES = st.lists(
    st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf])
    | st.floats(allow_nan=False),
    min_size=1,
    max_size=12,
)


class TestRankOfTrue:
    def test_strict_max_ranks_first(self):
        assert rank_of_true(np.array([0.1, 0.9, 0.5]), 1) == 1

    def test_ties_are_pessimistic(self):
        assert rank_of_true(np.array([0.5, 0.5]), 0) == 2

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
            t = int(rng.integers(n))
            assert rank_of_true(scores, t) == sort_rank_oracle(scores.tolist(), t)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            rank_of_true(np.array([]), 0)
        with pytest.raises(ValueError, match="out of range"):
            rank_of_true(np.array([1.0]), 1)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scores = rng.normal(size=10)
            t = int(rng.integers(10))
            base = rank_of_true(scores, t)
            assert rank_of_true(3.0 * scores + 1.0, t) == base
            assert rank_of_true(np.exp(scores), t) == base


class TestMRR:
    def test_all_first(self):
        assert mrr([1, 1, 1]) == 1.0

    def test_by_hand(self):
        assert mrr([1, 2]) == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            mrr([])
        with pytest.raises(ValueError, match="start at 1"):
            mrr([0, 2])


class TestHitAt:
    def test_by_hand(self):
        assert hit_at([1, 4], 3) == 0.5
        assert hit_at([2, 3, 5], 3) == pytest.approx(2.0 / 3.0)

    def test_cutoff_at_or_past_worst_rank(self):
        assert hit_at([3, 7, 2], 7) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            hit_at([], 1)
        with pytest.raises(ValueError, match="starts at 1"):
            hit_at([1], 0)


class TestAUC:
    def test_full_separation(self):
        assert auc([0.9, 0.8], [0.7, 0.1]) == 1.0

    def test_three_of_four_pairs(self):
        assert auc([0.9, 0.4], [0.6, 0.1]) == 0.75

    def test_all_tied_is_half(self):
        assert auc([0.3, 0.3], [0.3]) == 0.5

    def test_complement_symmetry_without_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            scores = rng.permutation(np.arange(12, dtype=np.float64))
            pos, neg = scores[:5], scores[5:]
            assert auc(pos, neg) + auc(neg, pos) == pytest.approx(1.0)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            pos = np.round(rng.normal(size=int(rng.integers(1, 15))), 1)
            neg = np.round(rng.normal(size=int(rng.integers(1, 15))), 1)
            assert auc(pos, neg) == pytest.approx(
                pairwise_auc_oracle(pos.tolist(), neg.tolist()), abs=1e-12
            )

    @settings(max_examples=300)
    @given(pos=TIE_HEAVY_SCORES, neg=TIE_HEAVY_SCORES)
    def test_equals_pairwise_oracle_exactly(self, pos, neg):
        # both sides count whole and half wins, so neither rounds
        assert auc(pos, neg) == pairwise_auc_oracle(pos, neg)

    def test_nan_score_gives_nan(self):
        assert np.isnan(auc([0.9, np.nan], [0.1]))
        assert np.isnan(auc([0.9], [np.nan, 0.1]))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            auc([], [0.1])
        with pytest.raises(ValueError, match="at least one"):
            auc([0.1], [])


class TestAccuracy:
    def test_by_hand(self):
        assert accuracy([1, 0, 2, 2], [1, 1, 2, 0]) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            accuracy([], [])
        with pytest.raises(ValueError, match="congruent"):
            accuracy([1, 2], [1])
