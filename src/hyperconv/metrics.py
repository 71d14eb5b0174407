"""Ranking and classification metrics. All values live in [0, 1]."""

from __future__ import annotations

import numpy as np


def rank_of_true(scores: np.ndarray, true_index: int) -> int:
    """Pessimistic rank of the true candidate among all scores.

    Every candidate scoring at least as high as the true one (other
    than the true one itself) pushes the rank down, so ties are never
    flattering.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or len(scores) == 0:
        raise ValueError("scores must be a nonempty 1-d array")
    if not 0 <= true_index < len(scores):
        raise ValueError(f"true_index {true_index} out of range")
    s = scores[true_index]
    worse = int((scores >= s).sum()) - 1  # the true entry matches itself
    return 1 + worse


def mrr(ranks) -> float:
    """Mean reciprocal rank: the mean of 1 / rank over 1-based ranks."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if len(ranks) == 0:
        raise ValueError("no ranks")
    if (ranks < 1).any():
        raise ValueError("ranks start at 1")
    return float(np.mean(1.0 / ranks))


def hit_at(ranks, k: int) -> float:
    """Fraction of ranks at or above the cutoff (rank <= k)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if len(ranks) == 0:
        raise ValueError("no ranks")
    if k < 1:
        raise ValueError("k starts at 1")
    return float(np.mean(ranks <= k))


def auc(pos_scores, neg_scores) -> float:
    """Probability a positive outscores a negative; ties count half.

    Computed from the Mann-Whitney statistic via average ranks, which
    is exact and avoids the quadratic pairwise comparison. A NaN score
    makes the result NaN.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need at least one positive and one negative score")
    scores = np.concatenate([pos, neg])
    if np.isnan(scores).any():
        return float("nan")
    ranks = _average_ranks(scores)
    u = ranks[: len(pos)].sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their positions.

    The ranks are half-integers, so they and their sums are exact.
    """
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    first = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    end = np.r_[first[1:], len(x)]  # one past each tie group
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((first + end + 1) / 2.0, end - first)
    return ranks


def accuracy(predicted, truth) -> float:
    """Fraction of predictions equal to the truth, entry by entry."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValueError("predictions and truth must be nonempty and congruent")
    return float(np.mean(predicted == truth))
