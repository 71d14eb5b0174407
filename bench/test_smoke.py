"""Smoke test of the benchmark harness at toy sizes.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload untraced and traced for one second on toy inputs and
checks the result line against ``BENCHMARK.json``: every named metric
appears with its unit and no operation failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import MOVES, PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_layer_metric_names_what_it_moves():
    assert set(MOVES) == set(PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = unit
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    assert printed["failed_share"] == "fraction"
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["seed"] == 1 and env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_one_command_runs_every_workload():
    proc = _run("--workload", "all", "--seed", "1", "--seconds", "1", "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["workloads"]) == set(WORKLOADS)
    assert all(set(metrics) == names for metrics in result["workloads"].values())


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
