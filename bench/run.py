"""Benchmark for hyperconv: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload prediction-dense --seed 1 --seconds 20 --trace 0

Run from the repository root (or any copy holding ``src/`` and
``bench/``). The package is imported from ``src/`` next to this
directory; with no ``src/hyperconv`` there the script exits with code 1
and prints no result.

A run writes the workload's inputs from the seed, then starts sessions,
one fresh process each (``session.py``), until ``--seconds`` have passed
and at least the workload's minimum of sessions and queries has run.
Set-up is timed once per session and reported as the median.
End-to-end times are scaled to a reference machine speed by a fixed
kernel run between operations (``speed.py``); each session's note gives
its median scale factor. Per-layer times are as measured.

``--trace 0`` measures the end-to-end metrics with only three hooks on
(the first optimizer step, the count of trained sets and the start of
each forward pass). ``--trace 1``
alternates traced and untraced sessions and reports the per-layer
metrics plus ``trace.overhead_share``. Every metric prints as
``metric <name> <value> <unit>``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in turn.
``--scale toy`` shrinks every input for a quick smoke run.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads it; sessions inherit the pin
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import END_TO_END, MOVES, PER_LAYER, UNITS  # noqa: E402
from workloads import OFF_PATH, WORKLOADS, layer_medians, median, quality_floor  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SESSION_TIMEOUT = 150


def check_package() -> None:
    """Fail unless hyperconv imports from ``src/`` beside the benchmark."""
    if not (SRC / "hyperconv" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'hyperconv'}")
    sys.path.insert(0, str(SRC))
    import hyperconv

    if Path(hyperconv.__file__).resolve().parent != (SRC / "hyperconv").resolve():
        raise SystemExit(f"bench: hyperconv imported from {hyperconv.__file__}, not {SRC}")


def environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
    }


class Run:
    """Sessions of one workload run and what they reported."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.workload = WORKLOADS[args.workload]
        self.scale = self.workload.scales[args.scale]
        self.sessions: list[dict] = []
        self.attempted = 0
        self.failed = 0  # operations with at least one failure
        self.failures: list[str] = []

    def generate(self) -> None:
        """Write the inputs in a child process, outside any timing."""
        fields = asdict(self.scale.size)
        if self.workload.task == "prediction":
            kind, out = "graph", self.workdir / "edges.txt"
        elif self.workload.task == "completion":
            kind, out = "knowledge", self.workdir / "facts"
        else:
            kind, out = "checkpoint", self.workdir
            fields.update(clusters=self.scale.clusters, hidden=self.scale.hidden)
        cmd = [sys.executable, str(BENCH_DIR / "generate.py"), kind,
               "--size", json.dumps(fields), "--seed", str(self.args.seed), "--out", str(out)]
        subprocess.run(cmd, check=True, timeout=SESSION_TIMEOUT)

    def session(self, kind: str, traced: bool, queries: int, start: int = 1,
                seconds: float = 0.0) -> dict | None:
        cmd = [sys.executable, str(BENCH_DIR / "session.py"), kind,
               "--workload", self.args.workload, "--scale", self.args.scale,
               "--seed", str(self.args.seed), "--workdir", str(self.workdir),
               "--traced", str(int(traced)), "--queries", str(queries),
               "--start", str(start), "--seconds", str(seconds)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SESSION_TIMEOUT)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{kind} session crashed: {proc.stderr.strip()[-300:]}")
            return None
        result.update(kind=kind, traced=traced)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]
        self.sessions.append(result)
        return result

    def measure(self) -> None:
        scale, seconds = self.scale, self.args.seconds
        traced = bool(self.args.trace)
        deadline = time.perf_counter() + seconds
        slice_s = seconds / scale.min_sessions
        start, count = 1, 0
        while True:
            # a traced run alternates traced and untraced sessions
            trace_this = traced and count % 2 == 0
            before = len(self.latencies())
            if self.workload.task != "query":
                self.session("train", trace_this, 0)
            else:
                # traced sessions all start at the same query, so counts repeat
                result = self.session("query", trace_this, scale.session_queries,
                                      1 if traced else start, slice_s)
                if result is not None and "next_position" in result:
                    start = result["next_position"]
            count += 1
            gathered = len(self.latencies())
            # past the deadline, stop at enough samples or once sessions fail
            if count >= scale.min_sessions and time.perf_counter() >= deadline and (
                gathered >= scale.min_samples or gathered == before
            ):
                break

    def latencies(self, traced: bool | None = None) -> list[float]:
        """Per-operation latencies: training batches or warm queries."""
        key = "latencies" if self.workload.task == "query" else "batch_latencies"
        return [
            x for s in self.sessions if traced is None or s["traced"] == traced
            for x in s.get(key, [])
        ]


def end_to_end(run: Run) -> dict:
    import numpy as np

    query = run.workload.task == "query"
    key = "query_setup" if query else "setup"
    setups = [s[key] for s in run.sessions if key in s]
    # the sessions that went past set-up: queried, or trained to the end
    sessions = [s for s in run.sessions if ("warm_wall" if query else "train_wall") in s]
    if not sessions:
        return {}
    out = {"setup_s": median(setups)}
    if query:
        out["sets_per_s"] = sum(len(s["latencies"]) for s in sessions) / sum(
            s["warm_wall"] for s in sessions
        )
        ranks = {}
        for s in sessions:
            ranks.update({int(p): r for p, r in s.get("ranks", {}).items()})
        prefix = [ranks[p] for p in range(1, run.scale.min_samples + 1) if p in ranks]
        out["quality"] = float(np.mean(1.0 / np.asarray(prefix))) if prefix else None
    else:
        # over all jobs' post-setup time, so a slow moment weighs by its length
        out["sets_per_s"] = sum(s["sets_stepped"] for s in sessions) / sum(
            s["train_wall"] for s in sessions
        )
        out["quality"] = sessions[0]["quality"]
    ms = 1e3 * np.asarray(run.latencies())
    ms = ms[np.isfinite(ms)]
    out["latency_p50_ms"] = float(np.percentile(ms, 50))
    out["latency_p95_ms"] = float(np.percentile(ms, 95))
    out["peak_rss_mb"] = median([s["rss_mb"] for s in sessions])
    return out


def per_layer(run: Run) -> dict:
    """Medians over the traced sessions. A metric no session recorded
    stays missing, unless its layer is off the task's path."""
    traced = [s for s in run.sessions if s["traced"] and "layers" in s]
    if not traced:
        return {}
    out = {name: 0 for name in PER_LAYER if name.startswith(OFF_PATH[run.workload.task])}
    out.update(layer_medians([s["layers"] for s in traced]))
    loads = [s for s in run.sessions if "checkpoint_load" in s]
    if loads:
        out["checkpoint.load.s"] = median([s["checkpoint_load"] for s in loads])
        out["checkpoint.bytes"] = loads[0]["checkpoint_bytes"]
    if run.workload.task == "query":
        traced_op, plain_op = run.latencies(True), run.latencies(False)
    else:
        traced_op = [s["wall"] for s in run.sessions if s["traced"] and "wall" in s]
        plain_op = [s["wall"] for s in run.sessions if not s["traced"] and "wall" in s]
    if traced_op and plain_op:
        out["trace.overhead_share"] = median(traced_op) / median(plain_op) - 1.0
    return out


def check_run(run: Run, quality: float | None) -> None:
    """Checks across sessions: one seed gives one report, and the query
    workload's MRR clears the floor its planted structure sets."""
    hashes = [s["report_sha256"] for s in run.sessions if "report_sha256" in s]
    differing = sum(h != hashes[0] for h in hashes)
    if differing:
        run.failures.append(f"{differing} reports differ from the first of the same seed")
        run.failed += differing
    if run.workload.task == "query" and quality is not None:
        floor = quality_floor("completion", run.scale.size)
        if not quality >= floor:
            run.failures.append(f"query MRR {quality:.4f} below planted floor {floor:.4f}")
            run.failed += 1


def run_one(args) -> int:
    check_package()
    print("env " + json.dumps(environment(args), sort_keys=True), flush=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, workdir)
        run.generate()
        run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = end_to_end(run)
    check_run(run, e2e.get("quality"))

    for name in ("report_sha256", "partition_cut"):
        values = sorted({str(s[name]) for s in run.sessions if name in s})
        if values:
            print(f"note {name} {' '.join(values)}")
    print(f"note sessions {len(run.sessions)} latency_samples {len(run.latencies())}")
    for s in run.sessions:
        lat = sorted(s.get("latencies", s.get("batch_latencies", [])))
        setup = s.get("setup", s.get("query_setup", float("nan")))
        p50 = lat[len(lat) // 2] if lat else float("nan")
        print(f"note session {s['kind']} traced={int(s['traced'])} setup_s={setup:.4f} "
              f"samples={len(lat)} p50_ms={1e3 * p50:.3f} speed={s.get('speed', math.nan):.3f}")
    for line in run.failures[:20]:
        print(f"failure {line}", file=sys.stderr)

    if not run.sessions:
        print("bench: no session reported", file=sys.stderr)
        return 1
    wanted = PER_LAYER if args.trace else END_TO_END
    values = per_layer(run) if args.trace else e2e
    metrics = {name: values.get(name) for name in wanted}
    for name, value in metrics.items():
        if value is not None:
            moves = f"  # moves {MOVES[name]}" if name in MOVES else ""
            print(f"metric {name} {value!r} {UNITS[name]}{moves}")
    failed = min(run.failed, run.attempted)
    share = failed / run.attempted if run.attempted else 1.0
    print(f"metric failed_share {share!r} fraction ({failed} of {run.attempted} operations)")

    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        print(f"bench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not run.failures else 1


def run_all(args) -> int:
    """Every workload in turn; the last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"bench: {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["workloads"][name] = result["metrics"]
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long sessions keep starting")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
