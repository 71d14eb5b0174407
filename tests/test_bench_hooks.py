"""The benchmark's hook contract, checked without running the benchmark.

``bench/tracing.py`` swaps module attributes of the package for timing
wrappers, and ``bench/workloads.py`` and ``bench/generate.py`` call the
public API. A rename of any of those attributes, names or keywords breaks
the benchmark; these checks find that in about a second.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperconv
import hyperconv.training as training
from helpers import planted_communities, planted_knowledge, uniform_hypergraph

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def test_every_hooked_name_is_an_attribute_of_its_owner():
    tracing = load_tracing()
    patches = tracing.Probe(tracing.Tracer()).patches()
    assert len(patches) > 3  # traced runs hook more than the always-on three
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in patches
               if name not in owner.__dict__]
    assert missing == []


def test_partition_calls_coarsen_through_the_hooked_attribute(monkeypatch):
    # the hook swaps the module attribute, so partition must look coarsen up
    # when it runs rather than hold its own reference
    module = sys.modules["hyperconv.partition"]
    real = module.coarsen
    sizes = []

    def counting(h, *args, **kwargs):
        sizes.append(h.num_nodes)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(module, "coarsen", counting)
    h = uniform_hypergraph(seed=0, num_edges=1000, arity=4)  # 500 nodes; k=2 stops at 200
    hyperconv.partition(h, 2)
    assert sizes[0] == h.num_nodes
    assert len(sizes) >= 2


def test_a_traced_prediction_run_counts_every_pretext_set():
    # the bench reads sets_stepped off each backward's cache and the field
    # off each forward's; a training path that bypassed either hook would
    # read 0 sets or no field
    tracing = load_tracing()
    edges, _ = planted_communities(np.random.default_rng(3), 2, 20, 70, 4, 6)
    h = hyperconv.build_hypergraph(edges, num_nodes=40)
    cfg = hyperconv.TrainConfig(task="prediction", clusters=4, hidden_dim=8, epochs=2,
                                patience=2, batch_size=32, seed=5)
    splits = hyperconv.Splits.from_ratios(h.num_edges, cfg.split_ratios, cfg.seed)
    negatives = training._draw_run_negatives(h, splits, np.random.default_rng(cfg.seed))
    pretext_sets = len(splits.train) + len(negatives["train"])
    probe = tracing.Probe(tracing.Tracer())
    with tracing.hooked(probe):
        hyperconv.train_prediction(h, cfg, splits=splits)
    assert probe.sets_stepped == cfg.epochs * pretext_sets
    steps = cfg.epochs * -(-pretext_sets // cfg.batch_size)
    trained = probe.tracer.named("conv.fwd_train")
    assert len(trained) == steps == probe.tracer.calls("conv.bwd")
    # each epoch's validation, the train and valid representations, the test
    scored = probe.tracer.named("conv.fwd_score")
    assert len(scored) == cfg.epochs + 2 + 1
    forwards = trained + scored
    assert all(0 < span.attrs["needed_edges"] <= span.attrs["edges"] for span in forwards)


@pytest.mark.parametrize("task", ["completion", "prediction"])
def test_a_traced_job_records_a_features_span(task):
    # the bench times features by the builders' names on the training
    # module; a job that reached none of them would leave features.s missing
    tracing = load_tracing()
    cfg = hyperconv.TrainConfig(task=task, clusters=2, hidden_dim=4, epochs=1, patience=1,
                                batch_size=32, seed=2)
    probe = tracing.Probe(tracing.Tracer())
    with tracing.hooked(probe):
        if task == "completion":
            hyperconv.train_completion(planted_knowledge(np.random.default_rng(4)), cfg)
        else:
            edges, _ = planted_communities(np.random.default_rng(3), 2, 20, 70, 4, 6)
            hyperconv.train_prediction(hyperconv.build_hypergraph(edges, num_nodes=40), cfg)
    assert probe.tracer.calls("features") == 1  # node_onehot, once a job


BENCH_CALLERS = [BENCH / "workloads.py", BENCH / "generate.py"]


def hyperconv_uses(path):
    """Each ``hc.<name>`` read or ``from hyperconv import <name>`` in the
    file, and each call of such a name, as (line, name, call or None)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    aliases = {a.asname or a.name for node in nodes if isinstance(node, ast.Import)
               for a in node.names if a.name == "hyperconv"}
    imported, uses = {}, []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "hyperconv":
            for a in node.names:
                imported[a.asname or a.name] = a.name
                uses.append((node.lineno, a.name, None))
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.append((node.lineno, node.attr, None))
        elif isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id in aliases):
                uses.append((node.lineno, f.attr, node))
            elif isinstance(f, ast.Name) and f.id in imported:
                uses.append((node.lineno, imported[f.id], node))
    return uses


def test_the_benchmark_calls_only_names_that_exist():
    missing = [f"{path.name}:{line}: {name}" for path in BENCH_CALLERS
               for line, name, _ in hyperconv_uses(path) if not hasattr(hyperconv, name)]
    assert missing == []


def test_the_benchmark_keywords_bind_to_the_signatures():
    # a placeholder per argument: a call that names a dropped keyword, or
    # passes more positions than the signature takes, fails to bind
    bad, checked = [], set()
    for path in BENCH_CALLERS:
        for line, name, call in hyperconv_uses(path):
            if call is None or not hasattr(hyperconv, name):
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords)
            args = [None] * sum(not isinstance(a, ast.Starred) for a in call.args)
            kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
            sig = inspect.signature(getattr(hyperconv, name))
            try:
                (sig.bind_partial if starred else sig.bind)(*args, **kwargs)
            except TypeError as exc:
                bad.append(f"{path.name}:{line}: {name}: {exc}")
            checked.add((name, *sorted(kwargs)))
    assert bad == []
    # the calls this guard exists for are still among those it read
    assert ("e2e_forward", "agg", "bilinear") in checked
    assert ("n2e", "bilinear") in checked
    assert any(entry[0] == "TrainConfig" and len(entry) > 1 for entry in checked)
