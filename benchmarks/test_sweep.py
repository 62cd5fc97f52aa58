"""Design-space sweep benchmark: persistent cache and resume payoff.

The acceptance experiment for the million-point sweep machinery,
written to ``BENCH_sweep.json`` at the repository root:

* **cold vs warm** — the full Squeezelerator design space (every zoo
  model x array sizes x RF sizes) swept into a fresh persistent cache
  directory, then swept again by a brand-new engine over the same
  directory.  The warm run deserializes instead of simulating — it is
  also the resume check: a re-run over the same directory makes zero
  layer lookups, i.e. re-simulates zero points (the killed-mid-sweep
  contract is exercised in ``tests/test_core_sweep_process.py``); the
  ≥10x speedup floor is asserted in the full configuration (the smoke
  configuration asserts a ≥3x floor — fewer, cheaper points leave less
  simulation time to win back).
* **bit identity** — warm, cold, and a from-scratch uncached sweep all
  produce identical points, field for field; thread and process mode
  agree on a subset.
* **streaming frontier** — the warm sweep feeds the incremental Pareto
  frontier point by point; its result must equal the batch frontier.

``SWEEP_SMOKE=1`` shrinks the space to 2 models x 2 arrays x 2 RF
sizes — the CI smoke configuration.  All cache state lives in
temporary ``repro_sweep_*`` directories that are removed on exit (CI
gates on leftovers).
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.pareto import streaming_sweep_frontier, sweep_dominates
from repro.core.sweep import SweepEngine
from repro.core.tuner import design_space_jobs
from repro.models import build_all

SMOKE = os.environ.get("SWEEP_SMOKE") == "1"
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: Warm-over-cold floor: full design space / CI smoke subset.
FULL_SPEEDUP_FLOOR = 10.0
SMOKE_SPEEDUP_FLOOR = 3.0

if SMOKE:
    MODEL_NAMES = ["SqueezeNet v1.1", "SqueezeNext"]
    ARRAY_SIZES = (16, 32)
    RF_ENTRIES = (8, 16)
else:
    MODEL_NAMES = None  # the whole zoo
    ARRAY_SIZES = (8, 16, 24, 32)
    RF_ENTRIES = (4, 8, 16, 32)


def report_dicts(points):
    return [(p.label, [layer.__dict__ for layer in p.report.layers])
            for p in points]


def test_design_space_sweep_cache_and_resume():
    zoo = build_all()
    networks = ([zoo[name] for name in MODEL_NAMES] if MODEL_NAMES
                else list(zoo.values()))
    jobs = design_space_jobs(networks, array_sizes=ARRAY_SIZES,
                             rf_entries=RF_ENTRIES)
    cache_dir = Path(tempfile.mkdtemp(prefix="repro_sweep_"))
    try:
        # -- cold: simulate everything into the persistent tier --------
        start = time.perf_counter()
        with SweepEngine(cache_dir=cache_dir) as cold_engine:
            cold = cold_engine.run(jobs)
            cold_stats = cold_engine.cache_stats
        cold_s = time.perf_counter() - start
        assert cold_stats.disk.writes == cold_stats.entries > 0

        # -- warm: a new engine over the same directory ----------------
        start = time.perf_counter()
        with SweepEngine(cache_dir=cache_dir) as warm_engine:
            frontier = streaming_sweep_frontier(warm_engine.run_iter(jobs))
            warm_stats = warm_engine.cache_stats
        warm_s = time.perf_counter() - start
        assert warm_stats.lookups == 0, "warm run re-simulated a point"
        assert warm_stats.disk.network_hits == len(jobs)  # whole-report tier
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        floor = SMOKE_SPEEDUP_FLOOR if SMOKE else FULL_SPEEDUP_FLOOR
        assert speedup >= floor, (
            f"warm re-run only {speedup:.1f}x over cold (floor {floor}x)")

        # -- bit identity: warm == cold == uncached --------------------
        with SweepEngine(cache_dir=cache_dir) as check_engine:
            warm_points = check_engine.run(jobs)
        uncached = SweepEngine(use_cache=False).run(
            jobs[:4] if not SMOKE else jobs)
        assert report_dicts(warm_points) == report_dicts(cold)
        assert report_dicts(cold[:len(uncached)]) == report_dicts(uncached)

        # -- thread vs process agree (subset keeps wall clock sane) ----
        subset = jobs[:8]
        threaded = SweepEngine(mode="thread").run(subset)
        processed = SweepEngine(mode="process", max_workers=2).run(subset)
        assert report_dicts(processed) == report_dicts(threaded)

        # -- streaming frontier equals the batch frontier --------------
        batch_front = [p for p in cold
                       if not any(sweep_dominates(q, p) for q in cold)]
        assert report_dicts(frontier.points) == report_dicts(batch_front)

        db_bytes = (cache_dir / "simcache.sqlite").stat().st_size
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    print(f"sweep: {len(jobs)} points over {len(networks)} models, "
          f"cold {cold_s:.2f}s -> warm {warm_s:.2f}s ({speedup:.1f}x), "
          f"frontier {len(frontier)} points, store "
          f"{db_bytes / 2**20:.2f} MiB")

    RESULTS_PATH.write_text(json.dumps({
        "benchmark": "design_space_sweep",
        "smoke": SMOKE,
        "cpus": os.cpu_count(),
        "models": [network.name for network in networks],
        "array_sizes": list(ARRAY_SIZES),
        "rf_entries": list(RF_ENTRIES),
        "points": len(jobs),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(speedup, 1),
        "speedup_floor": floor,
        "bit_identical": True,          # asserted above
        "process_mode_identical": True,  # asserted above
        "resume_resimulated_points": warm_stats.lookups,
        "frontier_points": len(frontier),
        "disk": {
            "entries": cold_stats.disk.entries,
            "size_bytes": db_bytes,
            "warm_hits": warm_stats.disk.hits,
            "warm_misses": warm_stats.disk.misses,
            "warm_network_hits": warm_stats.disk.network_hits,
            "warm_network_misses": warm_stats.disk.network_misses,
        },
    }, indent=2) + "\n")
