import collections
import dataclasses
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperconv.training as training
from hyperconv import convolution
from hyperconv.convolution import AGG_KINDS, OMEGA_KINDS, e2e_backward, e2e_forward, init_layer
from hyperconv.data import Splits, load_knowledge
from hyperconv.features import edge_cluster_pool
from hyperconv.hypergraph import KnowledgeHypergraph, build_hypergraph
from hyperconv.training import (
    TASKS,
    Adam,
    SamplingError,
    TrainConfig,
    _batch_cross_entropy,
    _epoch_order,
    _fit,
    evaluate,
    predict_edge,
    predict_relation,
    sample_negative,
    train_classification,
    train_completion,
    train_prediction,
)

from helpers import (
    cross_entropy,
    draw_hypergraph,
    naive_sample_negative,
    planted_communities,
    planted_knowledge,
    random_hypergraph,
)


CONFIG_KEYS = {"task", "clusters", "omega", "bilinear", "hidden_dim", "epochs", "patience",
               "learning_rate", "batch_size", "seed", "split_ratios", "agg", "balance_epsilon"}


@st.composite
def split_ratios(draw):
    train = draw(st.floats(0.0, 1.0))
    valid = draw(st.floats(0.0, 1.0 - train))
    return (train, valid, 1.0 - train - valid)


def configs():
    """Every TrainConfig field, each drawn over its valid values."""
    return st.builds(
        TrainConfig,
        task=st.sampled_from(TASKS),
        clusters=st.integers(1, 64),
        omega=st.sampled_from((None, *OMEGA_KINDS)),
        bilinear=st.booleans(),
        hidden_dim=st.integers(1, 256),
        epochs=st.integers(1, 1000),
        patience=st.integers(1, 100),
        learning_rate=st.floats(1e-9, 10.0),
        batch_size=st.integers(1, 1024),
        seed=st.integers(0, 2**32 - 1),
        split_ratios=split_ratios(),
        agg=st.sampled_from(AGG_KINDS),
        balance_epsilon=st.floats(0.0, 1.0),
    )


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="task"):
            TrainConfig(task="regression")
        with pytest.raises(ValueError, match="omega"):
            TrainConfig(task="completion", omega="median")
        with pytest.raises(ValueError, match="^unknown aggregation 'harmonic'$"):
            TrainConfig(task="completion", agg="harmonic")
        with pytest.raises(ValueError, match="sum to 1"):
            TrainConfig(task="completion", split_ratios=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(task="completion", learning_rate=0.0)
        with pytest.raises(ValueError, match="start at 1"):
            TrainConfig(task="completion", epochs=0)
        with pytest.raises(ValueError, match="balance_epsilon"):
            TrainConfig(task="completion", balance_epsilon=-0.01)
        with pytest.raises(ValueError, match="^balance_epsilon must be finite and >= 0, got inf$"):
            TrainConfig(task="completion", balance_epsilon=math.inf)
        with pytest.raises(ValueError, match="^clusters must be >= 1$"):
            TrainConfig(task="completion", clusters=0)
        with pytest.raises(ValueError, match="^hidden_dim must be >= 1$"):
            TrainConfig(task="completion", hidden_dim=0)

    @pytest.mark.parametrize("field, value", [
        ("hidden_dim", 4.0), ("clusters", True), ("seed", 1.5), ("epochs", "3"),
        ("learning_rate", True), ("balance_epsilon", "0.1"), ("bilinear", 1),
        ("agg", None), ("task", 3),
    ])
    def test_rejects_a_value_of_the_wrong_type_naming_the_field(self, field, value):
        # the rule from_dict applies to JSON: an integer field takes no
        # bool or float, a float field no bool, and bilinear only a bool
        with pytest.raises(ValueError, match=f"^{field} is "):
            TrainConfig(**{"task": "prediction", field: value})

    def test_a_float_field_takes_an_int(self):
        assert TrainConfig(task="prediction", learning_rate=1).learning_rate == 1

    def test_omega_defaults_per_task(self):
        assert TrainConfig(task="completion").omega_kind == "mean"
        assert TrainConfig(task="classification").omega_kind == "mean"
        assert TrainConfig(task="prediction").omega_kind == "minmax"
        assert TrainConfig(task="prediction", omega="var").omega_kind == "var"

    @settings(max_examples=200)
    @given(cfg=configs())
    def test_dict_round_trip(self, cfg):
        d = cfg.to_dict()
        assert d.keys() == CONFIG_KEYS
        assert d["omega"] == cfg.omega_kind  # serialization pins the resolved default
        assert d["split_ratios"] == list(cfg.split_ratios)
        assert TrainConfig.from_dict(d).to_dict() == d


def one_row_cross_entropy(logits, label):
    loss, grad = _batch_cross_entropy(np.asarray(logits, dtype=np.float64)[None, :],
                                      np.array([label]))
    return loss, grad[0]


class TestCrossEntropy:
    def test_uniform_logits(self):
        for c in (2, 5, 9):
            loss, _ = one_row_cross_entropy(np.zeros(c), 0)
            assert loss == pytest.approx(math.log(c))

    def test_confident_correct_logit(self):
        loss, _ = one_row_cross_entropy([10.0, -10.0], 0)
        assert loss == pytest.approx(math.log(1.0 + math.exp(-20.0)), rel=1e-6)
        assert loss < 1e-8

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([1.0, 2.0, 0.5])
        _, grad = one_row_cross_entropy(logits, 1)
        p = np.exp(logits) / np.exp(logits).sum()
        expected = p.copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(grad, expected, rtol=1e-12)

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits = rng.normal(size=int(rng.integers(2, 10))) * 5
            _, grad = one_row_cross_entropy(logits, int(rng.integers(len(logits))))
            assert abs(grad.sum()) < 1e-12

    def test_extreme_logits_stay_finite(self):
        loss, grad = one_row_cross_entropy([1000.0, -1000.0], 1)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        total, grad = _batch_cross_entropy(logits, labels)
        singles = [cross_entropy(logits[i], int(labels[i])) for i in range(6)]
        assert total == pytest.approx(np.mean([s[0] for s in singles]))
        np.testing.assert_allclose(grad, np.stack([s[1] for s in singles]) / 6)


def test_adam_minimizes_a_quadratic():
    x = np.array([10.0])
    opt = Adam({"x": x}, lr=0.1)
    for _ in range(500):
        opt.step({"x": 2.0 * (x - 3.0)})
    assert x[0] == pytest.approx(3.0, abs=1e-3)


def test_warm_adam_step_allocates_no_parameter_sized_temporaries():
    rng = np.random.default_rng(0)
    w = rng.normal(size=100_000)
    grad = rng.normal(size=w.shape)
    opt = Adam({"w": w}, lr=1e-3)
    opt.step({"w": grad})
    tracemalloc.start()
    try:
        opt.step({"w": grad})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes


def test_adam_steps_in_chunks_as_it_would_in_one_slice(monkeypatch):
    # 2.5 chunks of 4 elements, then one slice holding every element
    rng = np.random.default_rng(1)
    start = rng.normal(size=(2, 5))
    grads = [rng.normal(size=start.shape) for _ in range(4)]
    finals = []
    for chunk in (4, 16):
        monkeypatch.setattr(training, "_ADAM_CHUNK", chunk)
        w = start.copy()
        opt = Adam({"w": w}, lr=1e-2)
        for g in grads:
            opt.step({"w": g})
        finals.append(w)
    assert np.array_equal(*finals)
    assert not np.array_equal(finals[0], start)


def test_adam_rejects_parameters_it_cannot_step_in_place():
    with pytest.raises(ValueError, match="contiguous"):
        Adam({"w": np.zeros((4, 4)).T})


def fit_orders(seed, count, batch_size, blocks, epochs=3):
    """The item orders ``_fit`` visits, one per epoch."""
    batches = []

    def step(batch):
        batches.append(batch.copy())
        yield 0.0, {}

    cfg = TrainConfig(task="completion", epochs=epochs, patience=epochs, batch_size=batch_size)
    _fit(cfg, np.random.default_rng(seed), count, step, lambda: 0.0, {}, [], blocks=blocks)
    per_epoch = -(-count // batch_size)
    return [np.concatenate(batches[i:i + per_epoch]) for i in range(0, len(batches), per_epoch)]


def spans_of_clusters(order, blocks):
    """The distinct cluster counts of the maximal runs of ``order`` that no
    cluster's items cross: each cluster's first-to-last span, merged where
    spans overlap."""
    seq = blocks[order]
    last = {c: i for i, c in enumerate(seq.tolist())}
    runs, members, end = [], set(), -1
    for i, c in enumerate(seq.tolist()):
        members.add(c)
        end = max(end, last[c])
        if i == end:
            runs.append(len(members))
            members = set()
    return runs


@st.composite
def block_draws(draw):
    count = draw(st.integers(1, 300))
    k = draw(st.integers(1, 20))
    blocks = np.array(draw(st.lists(st.integers(0, k - 1), min_size=count, max_size=count)),
                      dtype=np.int64)
    return draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 64)), blocks


class TestEpochOrder:
    @settings(max_examples=150)
    @given(block_draws())
    def test_block_draw_is_a_repeatable_permutation_in_contiguous_groups(self, draw):
        seed, batch_size, blocks = draw
        orders = fit_orders(seed, len(blocks), batch_size, blocks)
        assert len(orders) == 3
        for order in orders:
            np.testing.assert_array_equal(np.sort(order), np.arange(len(blocks)))
            # a group of clusters is one contiguous run of the order
            assert max(spans_of_clusters(order, blocks)) <= training._CLUSTERS_PER_GROUP
        again = fit_orders(seed, len(blocks), batch_size, blocks)
        for a, b in zip(orders, again):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=100)
    @given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.integers(1, 64))
    def test_without_blocks_each_epoch_is_a_plain_permutation(self, count, seed, batch_size):
        rng = np.random.default_rng(seed)
        for order in fit_orders(seed, count, batch_size, None):
            np.testing.assert_array_equal(order, rng.permutation(count))

    def test_relational_tasks_draw_by_pooled_cluster_and_prediction_does_not(
            self, monkeypatch):
        seen = []

        def record(rng, count, blocks=None):
            seen.append(blocks)
            return _epoch_order(rng, count, blocks)

        monkeypatch.setattr(training, "_epoch_order", record)
        kh = planted_knowledge(np.random.default_rng(5), nodes_per=10, num_edges=100)
        model, _ = train_completion(kh, completion_config(epochs=2, patience=2))
        pooled = edge_cluster_pool(model.structure, model.clusters)
        assert len(seen) == 2
        for blocks in seen:
            np.testing.assert_array_equal(blocks, pooled)
        seen.clear()
        train_prediction(prediction_setup(), prediction_config(epochs=2, patience=2))
        assert len(seen) == 4 and all(blocks is None for blocks in seen)


class TestNegativeSampling:
    def test_invariants_hold_over_many_draws(self):
        rng = np.random.default_rng(12)
        h = build_hypergraph(
            [sorted(rng.choice(30, size=s, replace=False).tolist()) for s in [2, 3, 4, 5] * 5],
            num_nodes=30,
        )
        edge_members = h.edge_members
        existing = set(frozenset(m) for m in edge_members)
        for _ in range(200):
            e = int(rng.integers(h.num_edges))
            members = edge_members[e]
            neg = sample_negative(h, e, rng)
            assert len(neg.members) == len(members)
            assert len(set(neg.members)) == len(neg.members)
            kept = set(neg.members) & set(members)
            assert len(kept) == math.ceil(len(members) / 2)
            assert frozenset(neg.members) not in existing

    def test_only_one_outside_node(self):
        h = build_hypergraph([[0, 1]], num_nodes=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            neg = sample_negative(h, 0, rng)
            assert 2 in neg.members
            assert len(set(neg.members) & {0, 1}) == 1

    def test_edge_spanning_every_node_rejected(self):
        # a ValueError to a caller, and a SamplingError, so a skip, to a run
        h = build_hypergraph([[0, 1, 2]])
        with pytest.raises(ValueError, match="every node") as info:
            sample_negative(h, 0, np.random.default_rng(0))
        assert isinstance(info.value, SamplingError)

    def test_every_corruption_is_drawn_about_equally_often(self):
        # {0,1,2,3} among 8 nodes: 6 kept pairs times 6 fill pairs, 36 corruptions
        h = build_hypergraph([[0, 1, 2, 3]], num_nodes=8)
        rng = np.random.default_rng(0)
        draws = [sample_negative(h, 0, rng).members for _ in range(7200)]

        def chi_square(outcomes, cells):
            counts = collections.Counter(outcomes)
            assert set(counts) == set(cells)  # every outcome appears, no other
            expected = len(outcomes) / len(cells)
            return sum((counts[c] - expected) ** 2 / expected for c in cells)

        kept = list(itertools.combinations(range(4), 2))
        fills = list(itertools.combinations(range(4, 8), 2))
        # the bounds are the chi-square 0.999 quantiles for 35 and 5 degrees of freedom
        assert chi_square(draws, [k + f for k in kept for f in fills]) < 66.6
        assert chi_square([d[:2] for d in draws], kept) < 20.5
        assert chi_square([d[2:] for d in draws], fills) < 20.5

    def test_too_small_outside_pool_rejected(self):
        # size-4 edge keeps 2 and needs 2 fills, but only node 4 is outside
        h = build_hypergraph([[0, 1, 2, 3]], num_nodes=5)
        with pytest.raises(ValueError, match="outside"):
            sample_negative(h, 0, np.random.default_rng(0))

    @settings(max_examples=300)
    @given(data=st.data())
    def test_matches_the_complement_oracle_property(self, data):
        h = draw_hypergraph(data)
        if not h.num_edges:
            return
        edge = data.draw(st.integers(0, h.num_edges - 1), label="edge")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        outcomes = []
        for sampler in (sample_negative, naive_sample_negative):
            rng = np.random.default_rng(seed)
            try:
                result = sampler(h, edge, rng)
            except (ValueError, SamplingError) as exc:
                result = (type(exc), str(exc))
            outcomes.append((result, rng.bit_generator.state))
        assert outcomes[0] == outcomes[1]

    def test_exhausted_candidates_raise(self):
        # both possible corruptions of {0,1} already exist as edges
        h = build_hypergraph([[0, 1], [0, 2], [1, 2]])
        with pytest.raises(SamplingError, match="100 attempts"):
            sample_negative(h, 0, np.random.default_rng(0))

    def test_a_run_whose_every_corruption_collides_fails_naming_each_skip(self, caplog):
        # every pair of 4 nodes is an edge, so each corruption of a pair is one
        h = build_hypergraph(list(itertools.combinations(range(4), 2)))
        with pytest.raises(ValueError, match="^no negatives could be sampled$"):
            training._sample_negatives(h, range(h.num_edges), np.random.default_rng(0))
        skips = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert skips == [f"skipping negative: edge {e}: no novel corruption in 100 attempts"
                         for e in range(h.num_edges)]

    @pytest.mark.parametrize("edge", [-1, -3, 3, 2.0, True])
    def test_edge_id_must_be_an_integer_in_range(self, edge):
        # -1 once sampled an empty set and -3 corrupted edge 0
        h = build_hypergraph([[0, 1], [1, 2], [2, 3]], num_nodes=6)
        with pytest.raises(ValueError, match=rf"^edge id {edge} is not an integer in \[0, 3\)$"):
            sample_negative(h, edge, np.random.default_rng(0))


def test_tiny_gradient_step_never_raises_batch_loss():
    rng = np.random.default_rng(50)
    for _ in range(10):
        h = random_hypergraph(rng, max_nodes=10, max_edges=8)
        k, d_e, classes = 3, 4, 3
        edge_init = rng.normal(size=(h.num_edges, d_e))
        node_x = rng.normal(size=(h.num_nodes, k))
        layer1 = init_layer(4, d_e + k, rng, True, "relu")
        layer2 = init_layer(classes, 4 + k, rng, True, "identity")
        layers = (layer1, layer2)
        targets = [list(m) for m in h.edge_members]
        labels = rng.integers(0, classes, size=len(targets))

        def batch_loss():
            out, cache = e2e_forward(layers, "mean", h, edge_init, node_x, targets)
            loss, grad = _batch_cross_entropy(out, labels)
            return loss, cache, grad

        before, cache, grad = batch_loss()
        grads = e2e_backward(cache, grad)
        layer1.weight -= 1e-6 * grads["W1"]
        layer2.weight -= 1e-6 * grads["W2"]
        after, _, _ = batch_loss()
        assert after <= before + 1e-12


def completion_config(**kw):
    base = dict(
        task="completion", clusters=4, hidden_dim=16, epochs=40, patience=10,
        batch_size=32, seed=7,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestCompletion:
    def test_recovers_planted_relations(self):
        kh = planted_knowledge(np.random.default_rng(7), nodes_per=10, num_edges=120)
        model, report = train_completion(kh, completion_config())
        assert report.test_metrics["hit1"] >= 0.9
        assert report.test_metrics["mrr"] >= 0.9
        assert report.partition["balanced"]

    def test_first_epoch_loss_near_uniform(self):
        kh = planted_knowledge(np.random.default_rng(7), nodes_per=10, num_edges=120)
        _, report = train_completion(kh, completion_config(epochs=1, patience=1))
        assert report.history[0]["train_loss"] == pytest.approx(
            math.log(kh.num_relations), abs=0.4
        )

    def test_single_relation_rejected(self):
        base = build_hypergraph([[0, 1], [1, 2], [0, 2], [0, 1, 2]])
        from hyperconv.hypergraph import KnowledgeHypergraph

        kh = KnowledgeHypergraph(base, [0, 0, 0, 0], ("r",), ("a", "b", "c"))
        with pytest.raises(ValueError, match="2 relation"):
            train_completion(kh, completion_config())

    def test_task_mismatch_rejected(self):
        kh = planted_knowledge(np.random.default_rng(7))
        with pytest.raises(ValueError, match="config is for"):
            train_completion(kh, TrainConfig(task="prediction"))

    def test_seeded_runs_are_identical(self):
        kh = planted_knowledge(np.random.default_rng(3), nodes_per=10, num_edges=100)
        cfg = completion_config(epochs=8, patience=8)
        model_a, rep_a = train_completion(kh, cfg)
        model_b, rep_b = train_completion(kh, cfg)
        da, db = rep_a.to_dict(), rep_b.to_dict()
        da.pop("wall_seconds"), db.pop("wall_seconds")
        assert da == db
        np.testing.assert_array_equal(
            model_a.params.layer1.weight, model_b.params.layer1.weight
        )

    def test_evaluate_reproduces_report(self):
        kh = planted_knowledge(np.random.default_rng(5), nodes_per=10, num_edges=100)
        cfg = completion_config(epochs=10)
        splits = Splits.from_ratios(kh.base.num_edges, cfg.split_ratios, cfg.seed)
        model, report = train_completion(kh, cfg, splits)
        assert evaluate(model, kh, splits) == report.test_metrics

    def test_early_stopping_restores_the_best_epoch(self):
        kh = planted_knowledge(
            np.random.default_rng(5), num_communities=6, nodes_per=6, num_edges=80
        )
        cfg = completion_config(
            clusters=2, hidden_dim=8, epochs=10, patience=2, batch_size=16, seed=5,
            learning_rate=3e-1,
        )
        splits = Splits.from_ratios(kh.base.num_edges, cfg.split_ratios, cfg.seed)
        model, report = train_completion(kh, cfg, splits)
        best = report.history[report.best_epoch - 1]["valid_metric"]
        # the run stopped early, and its last epoch scored below the best one
        assert report.epochs_run < cfg.epochs
        assert report.history[-1]["valid_metric"] < best
        # scores the valid split as the test split; evaluate rejects overlapping splits
        on_valid = Splits(splits.train, splits.test, splits.valid)
        assert evaluate(model, kh, on_valid)["mrr"] == best

    def test_warns_once_per_split_of_relations_training_never_saw(self, tmp_path, caplog):
        train = [f"{r}\t{a}\t{b}" for r in ("likes", "hates") for a, b in
                 [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]]
        files = {"train.txt": train, "valid.txt": ["likes\tb\td"],
                 "test.txt": ["knows\ta\td", "hates\tc\ta", "owes\tb\ta", "knows\td\tb"]}
        for name, lines in files.items():
            (tmp_path / name).write_text("".join(line + "\n" for line in lines), "utf-8")
        kh, splits = load_knowledge(tmp_path)
        cfg = completion_config(clusters=2, hidden_dim=4, epochs=1, patience=1)
        with caplog.at_level(logging.WARNING, logger="hyperconv.training"):
            train_completion(kh, cfg, splits)
        assert [r.getMessage() for r in caplog.records] == [
            "3 test facts have a relation with no training fact, first 'knows'"]
        caplog.clear()
        seen_only = Splits(splits.train, splits.valid, [12])  # "hates c a"
        with caplog.at_level(logging.WARNING, logger="hyperconv.training"):
            train_completion(kh, cfg, seen_only)
        assert caplog.records == []

    def test_batch_masks_leave_edge_init_intact(self):
        kh = planted_knowledge(np.random.default_rng(5), nodes_per=10, num_edges=100)
        cfg = completion_config(epochs=3, patience=3)
        splits = Splits.from_ratios(kh.base.num_edges, cfg.split_ratios, cfg.seed)
        model, _ = train_completion(kh, cfg, splits)
        types = model.edge_init[:, : kh.num_relations]
        np.testing.assert_array_equal(types.sum(axis=1), 1.0)
        assert types.argmax(axis=1).tolist() == [kh.edge_type[int(e)] for e in splits.train]


    def test_model_refuses_edge_types_of_another_length(self):
        kh = planted_knowledge(np.random.default_rng(5), nodes_per=10, num_edges=100)
        model, _ = train_completion(kh, completion_config(epochs=1, patience=1))
        with pytest.raises(ValueError, match=r"^edge_type has shape \(\d+,\), the structure"):
            dataclasses.replace(model, edge_type=model.edge_type[:-1])
        dense = dataclasses.replace(model, edge_type=None, edge_init=model.edge_init)
        assert np.array_equal(dense.edge_type, model.edge_type)


class TestClassification:
    def test_recovers_planted_classes(self):
        kh = planted_knowledge(np.random.default_rng(9), nodes_per=10, num_edges=120)
        cfg = completion_config(task="classification")
        _, report = train_classification(kh, cfg)
        assert report.test_metrics["accuracy"] >= 0.9

    def test_evaluate_reproduces_report(self):
        kh = planted_knowledge(np.random.default_rng(9), nodes_per=10, num_edges=100)
        cfg = completion_config(task="classification", epochs=5)
        splits = Splits.from_ratios(kh.base.num_edges, cfg.split_ratios, cfg.seed)
        model, report = train_classification(kh, cfg, splits)
        assert evaluate(model, kh, splits) == report.test_metrics

    def test_task_mismatch_rejected(self):
        kh = planted_knowledge(np.random.default_rng(9))
        with pytest.raises(ValueError, match="config is for"):
            train_classification(kh, completion_config())


def prediction_setup(seed=11, nodes_per=20, num_edges=70):
    rng = np.random.default_rng(seed)
    edges, _ = planted_communities(rng, 2, nodes_per, num_edges, 4, 6)
    return build_hypergraph(edges, num_nodes=2 * nodes_per)


def prediction_config(**kw):
    base = dict(
        task="prediction", clusters=4, hidden_dim=16, epochs=25, patience=6,
        batch_size=32, seed=11,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestPrediction:
    def test_trains_and_reports_auc(self):
        model, report = train_prediction(prediction_setup(), prediction_config())
        assert 0.0 <= report.test_metrics["auc"] <= 1.0
        assert model.params.head_weight.shape == (2, 16)
        assert report.epochs_run >= 2  # both stages contributed epochs

    def test_epochs_run_counts_both_stages(self):
        _, report = train_prediction(prediction_setup(), prediction_config(epochs=3, patience=3))
        assert len(report.history) == 6
        assert report.epochs_run == 6
        assert [row["epoch"] for row in report.history] == [1, 2, 3, 4, 5, 6]

    def test_seeded_runs_are_identical(self):
        h = prediction_setup()
        cfg = prediction_config(epochs=10)
        _, rep_a = train_prediction(h, cfg)
        _, rep_b = train_prediction(h, cfg)
        da, db = rep_a.to_dict(), rep_b.to_dict()
        da.pop("wall_seconds"), db.pop("wall_seconds")
        assert da == db

    def test_evaluate_replays_the_same_negatives(self):
        h = prediction_setup()
        cfg = prediction_config(epochs=10)
        splits = Splits.from_ratios(h.num_edges, cfg.split_ratios, cfg.seed)
        model, report = train_prediction(h, cfg, splits=splits)
        assert evaluate(model, h, splits) == report.test_metrics

    def test_training_forwards_read_the_lift_and_the_test_forward_does_not(self, monkeypatch):
        lifts = []
        real = training.e2e_forward

        def recording(*args, **kwargs):
            lifts.append(kwargs["lift"])
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "e2e_forward", recording)
        train_prediction(prediction_setup(), prediction_config(epochs=2, patience=2))
        assert all(lift is not None for lift in lifts[:-1])
        assert lifts[-1] is None
        assert len({id(lift) for lift in lifts[:-1]}) == 1  # built once per run

    def test_above_the_lift_cap_the_run_is_the_blocked_run(self, monkeypatch):
        h, cfg = prediction_setup(), prediction_config(epochs=4, patience=4, omega="var")
        real = training.e2e_forward

        def runs():
            model, report = train_prediction(h, cfg)
            doc = report.to_dict()
            del doc["wall_seconds"]
            return doc, [w.copy() for w in model.params.trainable().values()]

        # every forward on the blocked kernels, as before the lift
        monkeypatch.setattr(training, "e2e_forward",
                            lambda *args, lift, **kwargs: real(*args, **kwargs))
        blocked = runs()
        monkeypatch.setattr(training, "e2e_forward", real)
        monkeypatch.setattr(convolution, "_LIFT_BYTES", 0)
        capped = runs()
        assert capped[0] == blocked[0]
        for got, want in zip(capped[1], blocked[1], strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lift_bytes", [None, 0], ids=["lifted", "capped"])
    def test_stage_one_state_is_released_before_stage_two(self, monkeypatch, lift_bytes):
        # the pretext optimizer's moments and the lift table are stage 1's;
        # the head stage's forwards must run without them
        if lift_bytes is not None:
            monkeypatch.setattr(convolution, "_LIFT_BYTES", lift_bytes)
        adams, tables, fitted, alive = [], [], [], []
        real_lift, real_fit, real_forward = training.lift_edges, training._fit, training.e2e_forward

        class Spy(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                adams.append(weakref.ref(self))

        def lifting(*args, **kwargs):
            table = real_lift(*args, **kwargs)
            tables.append(None if table is None else weakref.ref(table))
            return table

        def fitting(*args, **kwargs):
            best = real_fit(*args, **kwargs)
            fitted.append(True)
            return best

        def forward(*args, **kwargs):
            if fitted:
                table = tables[0] and tables[0]()
                alive.append((adams[0]() is not None, table is not None))
            return real_forward(*args, **kwargs)

        for name, spy in (("Adam", Spy), ("lift_edges", lifting), ("_fit", fitting),
                          ("e2e_forward", forward)):
            monkeypatch.setattr(training, name, spy)
        train_prediction(prediction_setup(), prediction_config(epochs=2, patience=2))
        assert (tables[0] is None) == (lift_bytes == 0)
        # train and valid representations, then the test metrics
        assert len(alive) == 3
        assert not any(adam for adam, _ in alive)
        assert alive[-1] == (False, False)

    def test_task_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^config is for task 'completion'$"):
            train_prediction(prediction_setup(), completion_config())

    def test_balance_bound_that_overflows_rejected(self):
        with pytest.raises(ValueError, match="^balance_epsilon 1e\\+308 .* not finite$"):
            train_prediction(prediction_setup(), prediction_config(balance_epsilon=1e308))

    def test_node_count_mismatch_rejected(self):
        h = prediction_setup()
        cfg = prediction_config(epochs=3, patience=3)
        splits = Splits.from_ratios(h.num_edges, cfg.split_ratios, cfg.seed)
        model, _ = train_prediction(h, cfg, splits=splits)
        other = build_hypergraph([[0, 1]], num_nodes=5)
        with pytest.raises(ValueError, match="nodes"):
            evaluate(model, other, Splits(np.array([0]), np.array([0]), np.array([0])))


# trains the seed-1 prediction-dense job of the benchmark and prints its
# report minus wall_seconds as JSON
_BENCH_PREDICTION_JOB = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from generate import write_planted_graph
from workloads import WORKLOADS
import hyperconv as hc
scale = WORKLOADS["prediction-dense"].scales["full"]
cfg = hc.TrainConfig(task="prediction", clusters=scale.clusters, hidden_dim=scale.hidden,
                     epochs=scale.epochs, patience=scale.epochs, seed=1,
                     learning_rate=scale.learning_rate)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "edges.txt"
    write_planted_graph(scale.size, 1, path)
    data, splits, _ = hc.load_simple(path, cfg.split_ratios, cfg.seed)
    _, report = hc.train_prediction(data, cfg, splits)
doc = report.to_dict()
doc.pop("wall_seconds")
print(json.dumps(doc))
"""


def _leaves(doc, path=""):
    """Each scalar in a JSON document, keyed by its path."""
    if isinstance(doc, dict):
        parts = [_leaves(value, f"{path}.{key}") for key, value in doc.items()]
    elif isinstance(doc, list):
        parts = [_leaves(value, f"{path}[{i}]") for i, value in enumerate(doc)]
    else:
        return {path: doc}
    return {k: v for part in parts for k, v in part.items()}


def test_prediction_metric_holds_across_blas_thread_counts():
    # a seeded report is bit-reproducible at a fixed BLAS thread count; at
    # another count a threaded product may round differently, so the losses
    # may move in their last digits, but the test metric must not
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
    runs = {threads: subprocess.Popen(
        [sys.executable, "-B", "-c", _BENCH_PREDICTION_JOB, str(root / "bench")],
        env={**env, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
             "MKL_NUM_THREADS": str(threads)},
        stdout=subprocess.PIPE, text=True) for threads in (1, 2)}
    reports = {}
    for threads, run in runs.items():
        out, _ = run.communicate(timeout=300)
        assert run.returncode == 0
        reports[threads] = json.loads(out)
    one, two = (_leaves(reports[threads]) for threads in (1, 2))
    assert one.keys() == two.keys()
    for key in sorted(k for k in one if one[k] != two[k]):
        print(f"{key}: {one[key]!r} at one thread, {two[key]!r} at two")
    assert math.isclose(reports[1]["test_metrics"]["auc"], reports[2]["test_metrics"]["auc"],
                        rel_tol=0, abs_tol=1e-9)


@pytest.mark.parametrize("task, stages", [
    ("completion", [{"W1", "W2"}]),
    ("prediction", [{"W1", "W2", "Wh", "bh"}, {"Wh", "bh"}]),
])
def test_each_stage_optimizer_lives_inside_its_fit(monkeypatch, task, stages):
    # per Adam: built while a _fit ran, over that call's own dict; per _fit
    # call: its dict, and which of its Adams were gone when it returned
    running, built, fits = [], [], []
    real_fit = training._fit

    class Spy(Adam):
        def __init__(self, params, *args, **kwargs):
            super().__init__(params, *args, **kwargs)
            built.append(bool(running) and params is running[-1][0])
            if running:
                running[-1][1].append(weakref.ref(self))

    def fitting(cfg, rng, count, step, validate, params, *args, **kwargs):
        running.append((params, []))
        try:
            return real_fit(cfg, rng, count, step, validate, params, *args, **kwargs)
        finally:
            _, adams = running.pop()
            fits.append((params, [adam() is None for adam in adams]))

    monkeypatch.setattr(training, "Adam", Spy)
    monkeypatch.setattr(training, "_fit", fitting)
    if task == "completion":
        kh = planted_knowledge(np.random.default_rng(7), nodes_per=10, num_edges=120)
        train_completion(kh, completion_config(epochs=2, patience=2))
    else:
        train_prediction(prediction_setup(), prediction_config(epochs=2, patience=2))
    assert built == [True] * len(stages)
    assert [set(params) for params, _ in fits] == stages
    assert [dead for _, dead in fits] == [[True]] * len(stages)


def _renamed_entity(kh, index):
    names = list(kh.entity_names)
    names[index] = "renamed"
    return names


@pytest.mark.parametrize("vocabulary, message", [
    (lambda kh: (kh.relation_names + ("extra",), kh.entity_names),
     "dataset's relation 4 is 'extra', the model's is None"),
    (lambda kh: (kh.relation_names[::-1], kh.entity_names),
     "dataset's relation 0 is 'r3', the model's is 'r0'"),
    (lambda kh: (kh.relation_names, _renamed_entity(kh, 5)),
     "dataset's entity 5 is 'renamed', the model's is 'e5'"),
], ids=["another-relation-count", "relations-renumbered", "entity-renamed"])
def test_evaluate_checks_the_vocabularies(vocabulary, message):
    kh = planted_knowledge(np.random.default_rng(5), nodes_per=10, num_edges=100)
    cfg = completion_config(epochs=2, patience=2)
    splits = Splits.from_ratios(kh.base.num_edges, cfg.split_ratios, cfg.seed)
    model, report = train_completion(kh, cfg, splits)
    other = KnowledgeHypergraph(kh.base, kh.edge_type, *vocabulary(kh))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate(model, other, splits)
    assert evaluate(model, kh, splits) == report.test_metrics


@pytest.mark.parametrize("task", ["completion", "prediction"])
def test_evaluate_checks_its_splits(task):
    if task == "prediction":
        data, cfg = prediction_setup(), prediction_config(epochs=2, patience=2)
        n = data.num_edges
    else:
        data = planted_knowledge(np.random.default_rng(5), nodes_per=10, num_edges=100)
        cfg, n = completion_config(epochs=2, patience=2), data.base.num_edges
    splits = Splits.from_ratios(n, cfg.split_ratios, cfg.seed)
    model, _ = getattr(training, f"train_{task}")(data, cfg, splits)
    out = Splits(splits.train, splits.valid, np.append(splits.test, n + 1))
    with pytest.raises(ValueError, match=rf"^test split has edge id {n + 1}, out of range "
                                         rf"\[0, {n}\)$"):
        evaluate(model, data, out)
    overlap = Splits(splits.train, splits.valid, splits.valid)
    with pytest.raises(ValueError, match=rf"^splits overlap: test split repeats edge id "
                                         rf"{splits.valid[0]}$"):
        evaluate(model, data, overlap)


class TestQueries:
    def trained(self):
        kh = planted_knowledge(np.random.default_rng(7), nodes_per=10, num_edges=120)
        model, _ = train_completion(kh, completion_config())
        return kh, model

    def test_relation_scores_sorted_and_complete(self):
        kh, model = self.trained()
        ranked = predict_relation(model, kh.base.edge_members[0])
        assert len(ranked) == kh.num_relations
        assert sorted(r for r, _ in ranked) == list(range(kh.num_relations))
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_true_relation_ranks_high_on_planted_model(self):
        kh, model = self.trained()
        hits = 0
        for e in range(0, 40):
            top3 = [r for r, _ in predict_relation(model, kh.base.edge_members[e])[:3]]
            hits += kh.edge_type[e] in top3
        assert hits >= 36

    def test_candidate_validation(self):
        _, model = self.trained()
        with pytest.raises(ValueError, match="empty"):
            predict_relation(model, [])
        with pytest.raises(ValueError, match="out of range"):
            predict_relation(model, [10_000])
        with pytest.raises(ValueError, match="^node id 1.7 is not an integer$"):
            predict_relation(model, [1.7, 0.0])
        with pytest.raises(ValueError, match="^node id True is not an integer$"):
            predict_relation(model, [True, 0])
        with pytest.raises(ValueError, match="^node id 1.0 is not an integer$"):
            predict_relation(model, [0, 1.0])
        with pytest.raises(ValueError, match="trained for"):
            predict_edge(model, [0, 1])

    def test_edge_probability_in_unit_interval(self):
        model, _ = train_prediction(prediction_setup(), prediction_config(epochs=5))
        p = predict_edge(model, [0, 1, 2])
        assert 0.0 < p < 1.0
        with pytest.raises(ValueError, match="trained for"):
            predict_relation(model, [0, 1])
