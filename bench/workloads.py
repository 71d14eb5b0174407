"""The benchmark's three workloads, their sessions and correctness checks.

A run of one workload is a sequence of sessions, each a fresh process
started by ``run.py`` (see ``session.py``), the way each ``hyperconv``
command is one process. A ``train`` session drives ``load_*`` then
``train_*``; a ``query`` session drives ``load_checkpoint`` then
single-set ``predict_relation`` calls. Inputs are written by
``generate.py`` from the seed before anything is timed.

Operations are training jobs and queries. An operation fails when it
raises, returns a non-finite value or fails its check:

- a job's quality must clear a floor derived from the planted structure
  (for queries, the MRR of the run's first queries must);
- its partition must be balanced and its cut must equal an independent
  recount (and the cut in the report);
- its report, minus ``wall_seconds``, must hash the same in every
  session of the run (every session uses the same seed);
- a query's scores must match a batched ``e2e_forward`` of the same sets
  to 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from generate import PlantedGraphSize, PlantedKnowledgeSize
from speed import WINDOW, Speed

SCORE_TOLERANCE = 1e-9
PROBE_REPEATS = 5
PROBE_BATCH = 128
REFERENCE_BATCH = 128


@dataclass(frozen=True)
class Scale:
    """Sizes and counts of one workload at one scale."""

    size: PlantedGraphSize | PlantedKnowledgeSize
    clusters: int
    epochs: int = 1  # training workloads
    hidden: int = 64
    learning_rate: float = 1e-3
    min_sessions: int = 3  # set-up is timed once per session
    min_samples: int = 200  # latency samples per run, so >= 10 lie beyond p95

    @property
    def session_queries(self) -> int:
        """Warm queries per query session, at least: the minimum sessions
        then always reach the minimum samples."""
        return -(-self.min_samples // self.min_sessions)


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # prediction | completion | query
    scales: dict


# layer metrics that are zero by construction: the layer is not on the
# path of the task (query sessions neither load facts nor train, and
# completion jobs draw no negatives)
OFF_PATH = {
    "prediction": ("checkpoint.",),
    "completion": ("checkpoint.", "training.negatives."),
    "query": ("data.", "hypergraph.", "partition.", "features.", "training.",
              "conv.fwd_train.", "conv.bwd.", "metrics."),
}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "prediction-dense",
            "prediction",
            {
                # at the default rate, test AUC after 3 epochs ranged 0.78-0.99
                # over seeds; at 1e-2 it stays within 0.94-0.98
                "full": Scale(PlantedGraphSize(1600, 2400, 16, 3, 10, 0.03), 16, epochs=3,
                              learning_rate=1e-2),
                # toy graphs keep more than 200 nodes so the partitioner coarsens
                "toy": Scale(PlantedGraphSize(240, 480, 4, 3, 6, 0.03), 4, epochs=20,
                             hidden=16, learning_rate=1e-2, min_sessions=2,
                             min_samples=30),
            },
        ),
        Workload(
            "completion-sparse",
            "completion",
            {
                # four sessions: with three, the p95 over its 72 batches per job
                # spread 0.22 across seeds; with four, 0.07
                "full": Scale(PlantedKnowledgeSize(3200, 1280, 16, 2, 6, 0.3), 16, epochs=4,
                              min_sessions=4),
                "toy": Scale(PlantedKnowledgeSize(600, 240, 4, 2, 4, 0.3), 4, epochs=20,
                             hidden=16, min_sessions=2, min_samples=30),
            },
        ),
        Workload(
            "query-large",
            "query",
            {
                # the MRR of the first 200 queries spread 0.05 across seeds;
                # 400 halves its variance
                "full": Scale(PlantedKnowledgeSize(40000, 16000, 32, 2, 6, 0.3), 16,
                              min_samples=400),
                "toy": Scale(PlantedKnowledgeSize(600, 240, 4, 2, 4, 0.3), 4,
                             hidden=8, min_sessions=2, min_samples=30),
            },
        ),
    )
}


# ---------------------------------------------------------------------------
# checks and small statistics


def report_hash(report) -> str:
    doc = report.to_dict()
    doc.pop("wall_seconds")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def recount_cut(structure, labels: np.ndarray, k: int) -> int:
    """Connectivity-minus-one cut from distinct (edge, cluster) pairs."""
    sizes = np.fromiter((len(m) for m in structure.edge_members), dtype=np.int64)
    pins = np.fromiter(chain.from_iterable(structure.edge_members), dtype=np.int64)
    edge_of_pin = np.repeat(np.arange(structure.num_edges), sizes)
    pairs = np.unique(edge_of_pin * k + labels[pins])
    spanned = np.bincount(pairs // k, minlength=structure.num_edges)
    return int((spanned - 1).clip(min=0).sum())


def chance_mrr(relations: int) -> float:
    """Expected MRR of uniformly random scores: H_R / R."""
    return sum(1.0 / r for r in range(1, relations + 1)) / relations


def quality_floor(task: str, size) -> float:
    """Halfway from chance to what the planted structure allows.

    Planted sets are predictable; noisy sets score at chance, so the
    ceiling is (1 - noise) + noise * chance.
    """
    chance = 0.5 if task == "prediction" else chance_mrr(size.relations)
    ceiling = (1.0 - size.noise) + size.noise * chance
    return chance + 0.5 * (ceiling - chance)


def error_line(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {Path(last[0].filename).name}:{last[0].lineno}" if last else ""
    return f"{type(exc).__name__}: {exc}{where}"


def median(values) -> float:
    return float(statistics.median(values))


def layer_medians(per_op: list[dict]) -> dict:
    """Median of each layer metric that every operation recorded; counts
    stay integers."""
    out = {}
    for key in set.intersection(*(set(d) for d in per_op)):
        values = [d[key] for d in per_op]
        middle = statistics.median(values)
        exact = all(isinstance(v, int) for v in values) and middle == int(middle)
        out[key] = int(middle) if exact else float(middle)
    return out


# ---------------------------------------------------------------------------
# one session (runs in its own process)


class Session:
    """Measurements and failures of one session, sent back as JSON."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.doc: dict = {}

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def result(self, failed_ops: int) -> dict:
        return {
            **self.doc,
            "attempted": self.attempted,
            "failed": failed_ops,
            "failures": self.failures,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def train_session(workload: Workload, scale: Scale, seed: int, traced: bool,
                  workdir: Path) -> dict:
    """One training job, load to return, checked."""
    import hyperconv as hc
    from tracing import Probe, Tracer, hooked, job_layers

    session = Session()
    task = workload.task
    cfg = hc.TrainConfig(
        task=task, clusters=scale.clusters, hidden_dim=scale.hidden,
        epochs=scale.epochs, patience=scale.epochs, seed=seed,
        learning_rate=scale.learning_rate,
    )
    speed = Speed()
    probe = Probe(Tracer() if traced else None, speed)
    session.attempted += 1
    try:
        speed.tick(WINDOW)
        with hooked(probe):
            t0 = time.perf_counter()
            with probe.tracer.span("data.load") if traced else nullcontext():
                if task == "prediction":
                    data, splits, _ = hc.load_simple(
                        workdir / "edges.txt", cfg.split_ratios, cfg.seed
                    )
                else:
                    data, splits = hc.load_knowledge(workdir / "facts")
            if task == "prediction":
                model, report = hc.train_prediction(data, cfg, splits=splits)
            else:
                model, report = hc.train_completion(data, cfg, splits)
            t_end = time.perf_counter()
        if probe.first_step is None:
            raise RuntimeError("training finished without an optimizer step")
    except Exception as exc:  # the failure is reported, not raised
        session.fail(f"training job: {error_line(exc)}")
        return session.result(failed_ops=1)

    metric = "auc" if task == "prediction" else "mrr"
    session.doc.update(
        wall=speed.seconds(t0, t_end),
        setup=speed.seconds(t0, probe.first_step),
        sets_stepped=probe.sets_stepped,
        train_wall=speed.seconds(probe.first_step, t_end),
        batch_latencies=[speed.seconds(a, b) for a, b in probe.batches],
        speed=speed.median_factor(),
        quality=report.test_metrics[metric],
        report_sha256=report_hash(report),
        partition_cut=report.partition["cut"],
    )
    _check_job(task, scale, model, report, session)
    if traced:
        edges = data.edge_members if task == "prediction" else data.base.edge_members
        pool = [tuple(edges[int(e)]) for e in splits.test]
        session.doc["layers"] = {
            **job_layers(probe.tracer, probe.first_step, t_end, model.structure.num_edges),
            **_probe_kernels(model, pool),
        }
    return session.result(failed_ops=int(bool(session.failures)))


def query_session(traced: bool, workdir: Path, count: int, start: int,
                  time_limit: float) -> dict:
    """Time load_checkpoint plus one cold query (the set-up), then warm
    queries from pool position ``start`` on until ``time_limit`` seconds
    after the load began (at least ``count``), with the speed kernel run
    after each; check every answer."""
    import hyperconv as hc
    from tracing import Probe, Tracer, hooked, query_layers

    session = Session()
    held_out = json.loads((workdir / "queries.json").read_text(encoding="utf-8"))
    pool = [tuple(s) for s in held_out["sets"]]
    path = workdir / "model.json"
    speed = Speed()
    speed.tick(WINDOW)
    session.attempted += 1
    t0 = time.perf_counter()
    try:
        model = hc.load_checkpoint(path)
    except Exception as exc:  # the failure is reported, not raised
        session.fail(f"load_checkpoint: {error_line(exc)}")
        return session.result(failed_ops=1)
    loaded = time.perf_counter()

    def ask(s, probe=None):
        session.attempted += 1
        try:
            with hooked(probe) if probe is not None else nullcontext():
                a = time.perf_counter()
                answer = hc.predict_relation(model, s)
                return answer, (a, time.perf_counter())
        except Exception as exc:  # a failed query is counted, not fatal
            session.fail(f"query {s}: {error_line(exc)}")
            return None, None
        finally:
            speed.tick()

    cold_answer, cold = ask(pool[0])
    positions, answers, spans, layers = [0], [cold_answer], [], []
    warm_start = time.perf_counter()
    i = 0
    while i < count or time.perf_counter() - t0 < time_limit:
        position = 1 + (start - 1 + i) % (len(pool) - 1)
        probe = Probe(Tracer()) if traced else None
        answer, span = ask(pool[position], probe)
        positions.append(position)
        answers.append(answer)
        spans.append(span)
        if probe is not None:
            layers.append(query_layers(probe.tracer))
        i += 1
    session.doc.update(
        query_setup=speed.seconds(t0, loaded) + (speed.seconds(*cold) if cold else math.nan),
        checkpoint_load=loaded - t0,
        checkpoint_bytes=path.stat().st_size,
        latencies=[speed.seconds(*span) if span else math.nan for span in spans],
        warm_wall=speed.seconds(warm_start, time.perf_counter()),
        speed=speed.median_factor(),
        next_position=1 + (start - 1 + i) % (len(pool) - 1),
    )
    truth = held_out["relations"]
    session.doc["ranks"] = {
        p: 1 + [r for r, _ in a].index(truth[p])
        for p, a in zip(positions, answers) if a is not None
    }
    if layers:
        # counts come from a fixed prefix of queries so they repeat exactly
        session.doc["layers"] = {
            **layer_medians(layers),
            **{k: v for k, v in layer_medians(layers[:count]).items()
               if not k.endswith(".s")},
            **_probe_kernels(model, pool),
        }
    _check_queries(model, [pool[p] for p in positions], answers, session)
    return session.result(failed_ops=len(session.failures))  # one per query


def _check_job(task, scale, model, report, session: Session) -> None:
    metric = "auc" if task == "prediction" else "mrr"
    value = report.test_metrics[metric]
    floor = quality_floor(task, scale.size)
    if not (math.isfinite(value) and value >= floor):
        session.fail(f"test {metric} {value:.4f} below planted floor {floor:.4f}")
    if not model.params.all_finite():
        session.fail("non-finite weights")
    c = model.clusters
    sizes = np.bincount(c.cluster_of, minlength=c.k)
    cap = math.ceil((1.0 + c.balance_epsilon) * c.num_nodes / c.k)
    if sizes.max() > cap:
        session.fail(f"partition unbalanced: largest cluster {sizes.max()} > {cap}")
    recount = recount_cut(model.structure, np.asarray(c.cluster_of), c.k)
    if recount != report.partition["cut"]:
        session.fail(f"reported cut {report.partition['cut']} != recount {recount}")


def _reference_scores(model, sets) -> np.ndarray:
    """Batched public e2e_forward over the queried sets."""
    import hyperconv as hc

    parts = []
    for lo in range(0, len(sets), REFERENCE_BATCH):
        out, _ = hc.e2e_forward(
            model.layers, model.config.omega_kind, model.structure,
            model.edge_init, model.node_x, sets[lo : lo + REFERENCE_BATCH],
            bilinear=model.config.bilinear, agg=model.config.agg,
        )
        parts.append(out)
    return np.concatenate(parts)


def _check_queries(model, sets, answers, session: Session) -> None:
    """Compare every ranking with the batched reference to 1e-9."""
    unique = sorted(set(sets))
    row = {s: i for i, s in enumerate(unique)}
    reference = _reference_scores(model, unique)
    for position, (s, answer) in enumerate(zip(sets, answers)):
        if answer is None:
            continue  # already counted as failed
        expected = reference[row[s]]
        ids = [r for r, _ in answer]
        got = np.asarray([score for _, score in answer])
        want = expected[ids]
        if sorted(ids) != list(range(len(expected))) or np.any(np.diff(got) > 0):
            session.fail(f"query {position}: ranking is not a sorted permutation")
        elif not np.isfinite(got).all():
            session.fail(f"query {position}: non-finite score")
        elif np.any(np.abs(got - want) > SCORE_TOLERANCE * np.maximum(1.0, np.abs(want))):
            session.fail(f"query {position}: differs from batched e2e_forward")


def _probe_kernels(model, pool) -> dict[str, float]:
    """Time public e2n and n2e at the layer-2 width on this structure."""
    import hyperconv as hc

    rng = np.random.default_rng(0)
    h = model.structure
    hidden = model.params.layer1.out_dim
    edge_feats = rng.random((h.num_edges, hidden))
    node_feats = rng.random((h.num_nodes, hidden + model.clusters.k))
    batch = [pool[i % len(pool)] for i in range(PROBE_BATCH)]

    def median_ms(fn) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e3 * median(times)

    return {
        "conv.e2n.ms": median_ms(lambda: hc.e2n(h, edge_feats, model.node_x)),
        "conv.n2e.ms": median_ms(
            lambda: hc.n2e(model.params.layer2, model.config.omega_kind, node_feats,
                           batch, bilinear=model.config.bilinear)
        ),
    }
