"""Design-space sweep benchmark: what the persistent store saves.

The acceptance experiment for the resumable sweep machinery, written
to ``BENCH_sweep.json`` at the repository root:

* **cold, then warm** — the full Squeezelerator design space (every zoo
  model x array sizes x RF sizes) swept into a fresh store directory,
  then swept again by a brand-new engine over the same directory.  The
  warm run reads every point back instead of simulating it; it is also
  the resume check: a re-run over the same directory makes zero layer
  lookups, i.e. re-simulates zero points (the killed-mid-sweep contract
  is exercised in ``tests/test_core_sweep_process.py``).
* **warm over uncached** — the store's payoff is the simulation it
  saves, so a warm pass is timed against an uncached pass
  (``SweepEngine(use_cache=False)``) of the same jobs, one worker each,
  the two interleaved (:func:`bench_timing.interleaved`); the ratio of
  their best times must clear a floor (full and smoke configurations
  each have their own, derived from repeated runs).
* **bit identity** — warm, cold, and a from-scratch uncached sweep all
  produce identical points, field for field; thread and process mode
  agree on a subset.
* **streaming frontier** — the warm sweep feeds the incremental Pareto
  frontier point by point; its result must equal the batch frontier.

``SWEEP_SMOKE=1`` shrinks the space to 2 models x 2 arrays x 2 RF
sizes — the CI smoke configuration, written to
``.bench-smoke/BENCH_sweep.json`` instead.  All cache state lives in
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

from bench_timing import interleaved

SMOKE = os.environ.get("SWEEP_SMOKE") == "1"
_ROOT = Path(__file__).resolve().parent.parent
#: Full runs refresh the tracked record at the repository root;
#: smoke runs write into the gitignored ``.bench-smoke/``.
RESULTS_PATH = ((_ROOT / ".bench-smoke" if SMOKE else _ROOT)
                / "BENCH_sweep.json")

#: Warm-over-uncached floor: full design space / CI smoke subset.  On
#: a 2-vCPU host twelve runs each read 13.1-15.4x (full) and 6.5-8.9x
#: (smoke); a warm pass forced to re-simulate reads 1.6-1.9x.
FULL_SPEEDUP_FLOOR = 10.0
SMOKE_SPEEDUP_FLOOR = 3.0
#: Interleaved warm/uncached rounds behind the ratio.
TIMING_REPEATS = 5

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
        # -- cold: simulate everything into the store -----------------
        start = time.perf_counter()
        with SweepEngine(cache_dir=cache_dir) as cold_engine:
            cold = cold_engine.run(jobs)
            cold_stats = cold_engine.cache_stats
        cold_s = time.perf_counter() - start
        assert cold_stats.disk.writes == len(jobs)

        # -- warm: a new engine over the same directory ----------------
        with SweepEngine(cache_dir=cache_dir) as warm_engine:
            frontier = streaming_sweep_frontier(warm_engine.run_iter(jobs))
            warm_stats = warm_engine.cache_stats
        assert warm_stats.lookups == 0, "warm run re-simulated a point"
        assert warm_stats.disk.network_hits == len(jobs)  # whole-report store

        # -- timing: warm pass vs the uncached pass it replaces --------
        def warm_pass():
            with SweepEngine(max_workers=1, cache_dir=cache_dir) as engine:
                engine.run(jobs)

        def uncached_pass():
            SweepEngine(max_workers=1, use_cache=False).run(jobs)

        warm_times, uncached_times = interleaved(
            [warm_pass, uncached_pass], TIMING_REPEATS)
        warm_s, uncached_s = min(warm_times), min(uncached_times)
        speedup = uncached_s / warm_s if warm_s > 0 else float("inf")
        floor = SMOKE_SPEEDUP_FLOOR if SMOKE else FULL_SPEEDUP_FLOOR
        assert speedup >= floor, (
            f"warm pass only {speedup:.1f}x over uncached (floor {floor}x)")

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
          f"cold {cold_s:.3f}s, uncached {uncached_s:.3f}s -> warm "
          f"{warm_s:.3f}s ({speedup:.1f}x), "
          f"frontier {len(frontier)} points, store "
          f"{db_bytes / 2**20:.2f} MiB")

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps({
        "benchmark": "design_space_sweep",
        "smoke": SMOKE,
        "cpus": os.cpu_count(),
        "models": [network.name for network in networks],
        "array_sizes": list(ARRAY_SIZES),
        "rf_entries": list(RF_ENTRIES),
        "points": len(jobs),
        "cold_s": round(cold_s, 3),
        "uncached_s": round(uncached_s, 4),
        "warm_s": round(warm_s, 4),
        "timing_repeats": TIMING_REPEATS,
        "speedup": round(speedup, 1),
        "speedup_floor": floor,
        "bit_identical": True,          # asserted above
        "process_mode_identical": True,  # asserted above
        "resume_resimulated_points": warm_stats.lookups,
        "frontier_points": len(frontier),
        "disk": {
            "entries": cold_stats.disk.entries,
            "size_bytes": db_bytes,
            "warm_network_hits": warm_stats.disk.network_hits,
            "warm_network_misses": warm_stats.disk.network_misses,
        },
    }, indent=2) + "\n")
