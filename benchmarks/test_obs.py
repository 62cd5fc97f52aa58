"""Overhead benchmark of the observability layer (repro.obs).

Two acceptance numbers, written to ``BENCH_obs.json``:

* **disabled overhead** — the cost of the dormant instrumentation on
  the SqueezeNext simulation benchmark (uncached, so every layer is
  really simulated).  The baseline is ``plain_simulate``, a replica of
  ``AcceleratorSimulator.simulate`` with the obs calls stripped — the
  pre-instrumentation code path, same technique as the ``looped``
  baseline in ``benchmarks/test_nn_infer.py``.  Floor: < 3%.
* **enabled trace completeness** — a traced headline run must produce
  a Chrome-trace document that validates and contains the per-layer
  simulator spans, sweep-point spans and cache counters the issue
  demands; the enabled-mode overhead is recorded alongside.

``OBS_SMOKE=1`` shrinks the repetition counts and skips the overhead
floor (CI noise makes a <3% assertion meaningless on shared runners);
it writes ``.bench-smoke/BENCH_obs.json`` instead.
"""

import json
import os
import time
from pathlib import Path

from repro import obs
from repro.accel.report import NetworkReport
from repro.accel.simulator import AcceleratorSimulator
from repro.accel.workload import network_workloads
from repro.accel.config import squeezelerator
from repro.experiments import runner
from repro.models import squeezenext

from bench_timing import best_of

SMOKE = os.environ.get("OBS_SMOKE") == "1"
_ROOT = Path(__file__).resolve().parent.parent
#: Full runs refresh the tracked record at the repository root;
#: smoke runs write into the gitignored ``.bench-smoke/``.
RESULTS_PATH = ((_ROOT / ".bench-smoke" if SMOKE else _ROOT)
                / "BENCH_obs.json")

REPEATS = 5 if SMOKE else 40
OVERHEAD_FLOOR = 0.03  # disabled tracing must cost < 3%

#: Span names the enabled-mode headline trace must contain.
REQUIRED_SPANS = ("accel.simulate", "accel.layer", "sweep.point",
                  "runner.artifact")
REQUIRED_COUNTERS = ("simcache.hits", "simcache.misses")


def plain_simulate(simulator: AcceleratorSimulator, network,
                   workloads) -> NetworkReport:
    """The simulate() loop exactly as it ran before instrumentation.

    Mirrors :meth:`AcceleratorSimulator.simulate` for the uncached
    (``use_cache=False``) configuration, minus every obs call — the
    honest baseline for the disabled-instrumentation overhead.
    """
    layers = []
    for workload in workloads:
        options, _ = simulator._options_counted(
            workload, None, simulator._needed_dataflows(workload))
        layers.append(simulator._rebind(
            simulator._select(workload, options), workload))
    return NetworkReport(
        network=network.name,
        machine=simulator.config.name,
        policy=str(simulator.config.policy),
        layers=layers,
        frequency_hz=simulator.config.frequency_hz,
        num_pes=simulator.config.num_pes,
        cache_stats=None,
    )


def test_obs_overhead_and_trace():
    assert not obs.is_enabled()
    network = squeezenext()
    workloads = network_workloads(network)
    config = squeezelerator(32, 8)
    simulator = AcceleratorSimulator(config, use_cache=False)

    # The replica baseline must be bit-identical to the real path.
    assert plain_simulate(simulator, network, workloads) == (
        simulator.simulate(network, workloads))

    # Warmup, then measure: replica (no instrumentation), disabled,
    # enabled (fresh tracer per run so span storage never saturates).
    for _ in range(2):
        simulator.simulate(network, workloads)
    baseline_s = best_of(
        lambda: plain_simulate(simulator, network, workloads), REPEATS)
    disabled_s = best_of(
        lambda: simulator.simulate(network, workloads), REPEATS)

    def enabled_run():
        with obs.tracing():
            simulator.simulate(network, workloads)

    enabled_s = best_of(enabled_run, REPEATS)

    disabled_overhead = disabled_s / baseline_s - 1.0
    enabled_overhead = enabled_s / baseline_s - 1.0

    # Enabled-mode completeness on the real CLI artifact: a traced
    # headline run must yield a valid Chrome trace with simulator
    # layer spans, sweep-point spans and cache counters.
    with obs.tracing() as tracer:
        runner.run(["headline"])
    document = obs.chrome_trace(tracer)
    events = obs.validate_chrome_trace(document)
    span_names = {e["name"] for e in events if e["ph"] == "X"}
    counter_names = {e["name"] for e in events if e["ph"] == "C"}
    missing_spans = [n for n in REQUIRED_SPANS if n not in span_names]
    missing_counters = [n for n in REQUIRED_COUNTERS
                        if n not in counter_names]
    assert not missing_spans, missing_spans
    assert not missing_counters, missing_counters

    results = {
        "simulate_baseline_ms": baseline_s * 1e3,
        "simulate_disabled_ms": disabled_s * 1e3,
        "simulate_enabled_ms": enabled_s * 1e3,
        "disabled_overhead_pct": disabled_overhead * 100,
        "enabled_overhead_pct": enabled_overhead * 100,
        "overhead_floor_pct": OVERHEAD_FLOOR * 100,
        "repeats": REPEATS,
        "headline_trace": {
            "events": len(events),
            "spans": len([e for e in events if e["ph"] == "X"]),
            "span_names": sorted(span_names),
            "counters": {e["name"]: e["args"]["value"]
                         for e in events if e["ph"] == "C"},
            "valid_chrome_trace": True,
        },
        "smoke": SMOKE,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n",
                            encoding="utf-8")
    print(json.dumps(results, indent=2))

    if not SMOKE:
        assert disabled_overhead < OVERHEAD_FLOOR, (
            f"disabled tracing costs {disabled_overhead:.1%} "
            f"(floor {OVERHEAD_FLOOR:.0%})")


def test_span_call_cost_when_disabled():
    """The no-op fast path stays sub-microsecond per span."""
    assert not obs.is_enabled()
    n = 10_000 if SMOKE else 100_000
    start = time.perf_counter()
    for _ in range(n):
        with obs.span("x", a=1):
            pass
    per_span_us = (time.perf_counter() - start) / n * 1e6
    # Generous ceiling: even busy CI machines manage ~0.3us/span.
    assert per_span_us < 10.0
