"""Release gates for the whole library, one test per quality bar.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and asserts the same condition, so ``pytest -v tests/test_acceptance.py``
reads as a checklist. The last three gates need real datasets dropped
under ``data/`` (see README) and skip with instructions otherwise.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hyperconv.cli import main
from hyperconv.convolution import e2e_forward, e2n, init_layer, n2e
from hyperconv.data import Splits, load_knowledge, load_simple
from hyperconv.hypergraph import build_hypergraph
from hyperconv.metrics import auc, hit_at, mrr, rank_of_true
from hyperconv.partition import ClusterAssignment, cut, fm_refine, partition
from hyperconv.training import (
    TrainConfig,
    sample_negative,
    train_completion,
    train_prediction,
)

from helpers import (
    gradcheck_max_error,
    optimal_balanced_cut,
    planted_communities,
    planted_knowledge,
    random_hypergraph,
    recount_cut,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
FB_AUTO = DATA_DIR / "fb-auto"
IAF1260B = DATA_DIR / "iaf1260b.txt"

needs_fb_auto = pytest.mark.skipif(
    not all((FB_AUTO / f).is_file() for f in ("train.txt", "valid.txt", "test.txt")),
    reason="dataset not present: put train.txt/valid.txt/test.txt under data/fb-auto/",
)
needs_iaf1260b = pytest.mark.skipif(
    not IAF1260B.is_file(),
    reason="dataset not present: put one reaction per line at data/iaf1260b.txt",
)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_a01_cut_matches_exhaustive_recount():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(100):
        h = random_hypergraph(rng, max_nodes=12, max_edges=8)
        k = int(rng.integers(2, 5))
        labels = rng.integers(0, k, size=h.num_nodes)
        c = ClusterAssignment(labels, k, balance_epsilon=10.0)
        assert cut(h, c) == recount_cut(h, labels)
    _report(
        "cut-recount", True,
        f"100/100 random instances agree ({time.perf_counter() - start:.2f}s)",
    )


def test_a02_bipartition_quality_balance_and_monotone_refinement():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_ratio = 0.0
    for _ in range(50):
        h = random_hypergraph(rng, max_nodes=12, max_edges=8)
        n = h.num_nodes
        c = partition(h, 2)

        # exact integer form of the ceil((1 + 0.05) * n / k) size bound
        bound = (21 * n + 2 * 20 - 1) // (2 * 20)
        assert int(c.cluster_sizes().max()) <= bound

        achieved = cut(h, c)
        best = optimal_balanced_cut(h, 2)
        assert achieved <= 1.5 * best, f"cut {achieved} vs optimum {best}"
        if best > 0:
            worst_ratio = max(worst_ratio, achieved / best)

        init = None
        while init is None or not init.is_balanced():
            init = ClusterAssignment(rng.integers(0, 2, size=n), 2)
        trail = [cut(h, init)]
        refined = fm_refine(h, init, pass_cuts=trail)
        trail.append(cut(h, refined))
        assert all(b <= a for a, b in zip(trail, trail[1:])), "a pass raised the cut"
    _report(
        "bipartition-quality", True,
        f"50/50 within 1.5x of exhaustive optimum (worst ratio "
        f"{worst_ratio:.2f}), refinement monotone, balance bound held "
        f"({time.perf_counter() - start:.1f}s)",
    )


def test_a03_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = gradcheck_max_error(
        np.random.default_rng(303),
        trials=20,
        kinds=("mean", "var", "minmax"),
        bilinears=(False, True),
    )
    _report(
        "gradient-check", worst < 1e-5,
        f"max error {worst:.2e} over 20 models x 3 statistics x bilinear on/off "
        f"({time.perf_counter() - start:.1f}s)",
    )


def test_a04_scoring_invariant_to_member_order():
    rng = np.random.default_rng(404)
    for trial in range(100):
        h = random_hypergraph(rng, max_nodes=10, max_edges=8)
        k, d_e = 3, 2
        node_x = rng.normal(size=(h.num_nodes, k))
        edge_init = rng.normal(size=(h.num_edges, d_e))
        layers = (
            init_layer(3, d_e + k, rng, True, "relu"),
            init_layer(2, 3 + k, rng, True, "identity"),
        )
        kind = ("mean", "var", "minmax")[trial % 3]
        targets = [
            list(h.edge_members[int(e)]) for e in rng.integers(0, h.num_edges, size=3)
        ]
        base, _ = e2e_forward(layers, kind, h, edge_init, node_x, targets)
        shuffled = [list(rng.permutation(t)) for t in targets]
        again, _ = e2e_forward(layers, kind, h, edge_init, node_x, shuffled)
        assert (base == again).all(), "outputs differ after a member shuffle"
    _report("order-invariance", True, "100/100 shuffled scorings bit-identical")


def test_a05_ranking_metrics_match_brute_force():
    rng = np.random.default_rng(505)

    for _ in range(100):  # pessimistic rank against a counting oracle
        scores = np.round(rng.normal(size=int(rng.integers(1, 30))), 1)
        t = int(rng.integers(len(scores)))
        oracle = 1 + sum(
            1 for j, x in enumerate(scores) if j != t and x >= scores[t]
        )
        assert rank_of_true(scores, t) == oracle

    mrr_gap = 0.0
    for _ in range(100):  # aggregate metrics from raw rank lists
        ranks = rng.integers(1, 20, size=int(rng.integers(1, 40)))
        mrr_gap = max(mrr_gap, abs(mrr(ranks) - sum(1.0 / r for r in ranks) / len(ranks)))
        k = int(rng.integers(1, 6))
        assert hit_at(ranks, k) == sum(1 for r in ranks if r <= k) / len(ranks)
    assert mrr_gap < 1e-12

    for _ in range(100):  # AUC against the quadratic pairwise count
        pos = np.round(rng.normal(size=int(rng.integers(1, 20))), 1)
        neg = np.round(rng.normal(size=int(rng.integers(1, 20))), 1)
        wins = sum(
            1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg
        )
        assert auc(pos, neg) == wins / (len(pos) * len(neg))

    _report(
        "metric-oracles", True,
        f"100 cases each for rank/MRR/Hit/AUC (worst MRR gap {mrr_gap:.1e})",
    )


def test_a06_negative_samples_satisfy_invariants():
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 1000:
        h = random_hypergraph(rng, max_nodes=25, max_edges=12)
        edge_members = h.edge_members
        existing = set(frozenset(m) for m in edge_members)
        for e in range(h.num_edges):
            members = edge_members[e]
            need = len(members) - math.ceil(len(members) / 2)
            if h.num_nodes - len(members) < max(need, 1):
                continue  # no legal corruption exists for this edge
            try:
                neg = sample_negative(h, e, rng)
            except RuntimeError:
                continue  # tiny instances can exhaust the candidate space
            assert len(neg.members) == len(members), "arity changed"
            assert len(set(neg.members)) == len(neg.members), "repeated member"
            kept = len(set(neg.members) & set(members))
            assert kept == math.ceil(len(members) / 2), "wrong keep count"
            assert frozenset(neg.members) not in existing, "duplicates a real edge"
            checked += 1
            if checked == 1000:
                break
    _report("negative-sampler", True, "1000/1000 draws satisfy all invariants")


def test_a07a_planted_communities_recovered_by_prediction():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    edges, _ = planted_communities(rng, 2, 100, 300, 8, 12)
    h = build_hypergraph(edges, num_nodes=200)
    _, report = train_prediction(h, TrainConfig(task="prediction", seed=11))
    value = report.test_metrics["auc"]
    _report(
        "planted-prediction", value >= 0.90,
        f"test AUC {value:.4f} >= 0.90 on a 200-node 2-community instance "
        f"({time.perf_counter() - start:.1f}s)",
    )


def test_a07b_planted_relations_recovered_by_completion():
    start = time.perf_counter()
    kh = planted_knowledge(np.random.default_rng(7), 4, 15, 200, 3)
    _, report = train_completion(kh, TrainConfig(task="completion", clusters=4, seed=7))
    value = report.test_metrics["hit1"]
    _report(
        "planted-completion", value >= 0.95,
        f"held-out Hit@1 {value:.4f} >= 0.95 when relation = home community "
        f"({time.perf_counter() - start:.1f}s)",
    )


def test_a08_identical_reports_across_repeat_runs(tmp_path):
    rng = np.random.default_rng(7)
    edges, homes = planted_communities(rng, 4, 10, 120, 3, 3)
    lines = [
        "r%d\t%s" % (c, "\t".join(f"e{v}" for v in members))
        for members, c in zip(edges, homes)
    ]
    (tmp_path / "train.txt").write_text("".join(x + "\n" for x in lines[:84]), "utf-8")
    (tmp_path / "valid.txt").write_text("".join(x + "\n" for x in lines[84:96]), "utf-8")
    (tmp_path / "test.txt").write_text("".join(x + "\n" for x in lines[96:]), "utf-8")

    docs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = main(
            ["train", "--task", "completion", "--data", str(tmp_path), "--k", "4",
             "--dim", "16", "--epochs", "60", "--patience", "10",
             "--batch-size", "32", "--seed", "7", "-o", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text("utf-8"))
        doc.pop("wall_seconds")
        docs.append(json.dumps(doc, sort_keys=True))
    _report(
        "determinism", docs[0] == docs[1],
        "two seeded runs produced identical reports (wall time excluded)",
    )


def test_a09_forward_time_scales_gently_with_edges():
    def layer_time(m, seed):
        rng = np.random.default_rng(seed)
        n, delta, k, d_e = 2000, 4, 8, 8
        edges = [
            sorted(rng.choice(n, size=delta, replace=False).tolist()) for _ in range(m)
        ]
        h = build_hypergraph(edges, num_nodes=n)
        edge_feats = rng.normal(size=(m, d_e))
        node_x = rng.normal(size=(n, k))
        lp = init_layer(8, d_e + k, rng, True, "relu")
        targets = list(h.edge_members)

        def one_layer():
            return n2e(lp, "mean", e2n(h, edge_feats, node_x), targets, bilinear=True)

        one_layer()  # warm the cached incidence arrays
        times = []
        for _ in range(9):
            t0 = time.perf_counter()
            one_layer()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_small = layer_time(6000, seed=1)
    t_double = layer_time(12000, seed=1)
    factor = t_double / t_small
    _report(
        "forward-scaling", factor <= 3.0,
        f"doubling edges at fixed edge size: {t_small * 1e3:.1f}ms -> "
        f"{t_double * 1e3:.1f}ms, factor {factor:.2f} <= 3",
    )


def test_a13_query_time_set_by_receptive_field():
    def one_query(m, seed):
        rng = np.random.default_rng(seed)
        n, delta, k, d_e, hidden = m // 2, 4, 8, 8, 16
        edges = [
            sorted(rng.choice(n, size=delta, replace=False).tolist()) for _ in range(m)
        ]
        h = build_hypergraph(edges, num_nodes=n)
        edge_init = rng.normal(size=(m, d_e))
        node_x = rng.normal(size=(n, k))
        layers = (
            init_layer(hidden, d_e + k, rng, True, "relu"),
            init_layer(hidden, hidden + k, rng, True, "identity"),
        )
        targets = [list(h.edge_members[0])]
        return lambda: e2e_forward(layers, "minmax", h, edge_init, node_x, targets)

    queries = {m: one_query(m, seed=2) for m in (10000, 40000)}
    times = {m: [] for m in queries}
    for query in queries.values():
        query()  # warm the cached incidence arrays
    for _ in range(9):  # interleaved, so a machine-speed swing hits both sizes
        for m, query in queries.items():
            t0 = time.perf_counter()
            query()
            times[m].append(time.perf_counter() - t0)
    t_small, t_large = min(times[10000]), min(times[40000])
    factor = t_large / t_small
    _report(
        "query-scaling", factor <= 2.0,
        f"single-set forward at 4x the edges: {t_small * 1e3:.2f}ms -> "
        f"{t_large * 1e3:.2f}ms, factor {factor:.2f} <= 2 (min of 9)",
    )


@needs_fb_auto
def test_a10_fb_auto_completion():
    start = time.perf_counter()
    kh, splits = load_knowledge(FB_AUTO)
    cfg = TrainConfig(task="completion", seed=0)
    _, report = train_completion(kh, cfg, splits)
    got_mrr = report.test_metrics["mrr"]
    got_hit3 = report.test_metrics["hit3"]

    # chance-level floor: always guess relations by train-set frequency
    freq = np.bincount(
        [kh.edge_type[int(e)] for e in splits.train], minlength=kh.num_relations
    )
    by_freq = np.lexsort((np.arange(kh.num_relations), -freq))
    rank_of_rel = np.empty(kh.num_relations, dtype=np.int64)
    rank_of_rel[by_freq] = np.arange(1, kh.num_relations + 1)
    baseline = mrr([rank_of_rel[kh.edge_type[int(e)]] for e in splits.test])

    ok = got_mrr >= 0.75 and got_hit3 >= 0.90 and got_mrr > baseline
    _report(
        "fb-auto-completion", ok,
        f"MRR {got_mrr:.4f} (floor 0.75, frequency baseline {baseline:.4f}), "
        f"Hit@3 {got_hit3:.4f} (floor 0.90) ({time.perf_counter() - start:.0f}s)",
    )


@needs_iaf1260b
def test_a11_iaf1260b_prediction():
    start = time.perf_counter()
    h, splits, _ = load_simple(IAF1260B, seed=0)
    _, report = train_prediction(h, TrainConfig(task="prediction", seed=0), splits=splits)
    auc_minmax = report.test_metrics["auc"]
    _, report_mean = train_prediction(
        h, TrainConfig(task="prediction", omega="mean", seed=0), splits=splits
    )
    auc_mean = report_mean.test_metrics["auc"]
    ok = auc_minmax >= 0.65 and auc_minmax >= auc_mean
    _report(
        "iaf1260b-prediction", ok,
        f"minmax AUC {auc_minmax:.4f} (floor 0.65) vs mean AUC {auc_mean:.4f} "
        f"({time.perf_counter() - start:.0f}s)",
    )


@needs_iaf1260b
def test_a12_iaf1260b_cluster_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--task", "prediction", "--data", str(IAF1260B), "--seed", "0",
         "--param", "k", "--values", "2,4,8,16,32", "-o", str(out)]
    )
    lines = out.read_text("utf-8").strip().splitlines() if out.exists() else []
    ok = code == 0 and len(lines) == 6 and lines[0] == "k,auc"
    # the AUC-vs-k shape is recorded for inspection, not gated
    _report("cluster-sweep", ok, "; ".join(lines))
