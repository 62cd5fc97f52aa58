"""Smoke tests of the benchmark itself, at tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from harness import Scheduler, tail

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DECLARED = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
#: Per-layer values that must repeat exactly, whatever the seed.
EXACT = ["accel.simcache.misses", "accel.diskcache.writes",
         "accel.diskcache.network_hits", "accel.sim_cycles_total",
         "accel.simcache.hit_ratio"] + [
    name for name in DECLARED[1] if name.endswith("_mib")]


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def results():
    runs = {}
    for seed, workload in enumerate(WORKLOADS):
        for trace in (0, 1):
            proc = run_bench(workload, seed, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            runs[workload, trace] = (json.loads(lines[-2]),
                                     json.loads(lines[-1]))
    return runs


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(results, workload, trace):
    _, result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        DECLARED[trace]
    assert all(math.isfinite(m["value"]) for m in metrics.values())


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        _, result = results[workload, 0]
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exact_counts_repeat_across_seeds(results):
    values = [{name: results[w, 1][1]["metrics"][name]["value"]
               for name in EXACT} for w in WORKLOADS]
    assert all(v == values[0] for v in values)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_self_time_per_layer(results, workload):
    stamp, result = results[workload, 1]
    metrics = result["metrics"]
    for layer in ("accel", "core", "nn", "serve"):
        assert metrics[f"trace.self_ms.{layer}"]["value"] > 0
    assert metrics["trace.overhead.sweep_ratio"]["value"] > 0
    trace = json.loads((ROOT / stamp["trace_file"]).read_text())
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {"core.sweep.cold_pass", "accel.simulate", "nn.compiled.run",
            "serve.submit"} <= names


def test_environment_is_pinned(results):
    stamp, _ = results[WORKLOADS[0], 0]
    assert stamp["env"]["blas_threads"] in (None, 1)
    assert set(stamp["drift_before"]) == {"python_loop_ms", "gemm_ms"}
    assert not list((ROOT / ".perfbench").glob("run-*"))


def test_fails_without_the_program():
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(WORKLOADS[0], 0, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_tail_uses_highest_percentile_with_ten_beyond():
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(1000)))[0] == 99.0
    assert tail(list(range(15)))[0] == 50.0


def test_scheduler_runs_minimum_units_then_stops():
    scheduler = Scheduler({"a": 0.5, "b": 0.5}, seconds=0.0, min_units=2)
    kinds = []
    while (kind := scheduler.next_kind()) is not None:
        kinds.append(kind)
        scheduler.record(kind, 0.01)
    assert sorted(kinds) == ["a", "a", "b", "b"]
