"""The cold design-space sweep: pinned results, and a store that keeps
one whole-network row per point.

The pinned sums were computed before the OS model's closed-form tiling
and pass-cost split; any drift in a single simulated cycle or picojoule
moves them.  ``math.fsum`` is exact, so equality is the right test.
"""

import math
import sqlite3
from contextlib import closing

import pytest

from repro.accel.diskcache import DB_FILENAME, DiskCache
from repro.core.sweep import SweepEngine
from repro.core.tuner import design_space_jobs
from repro.models import build_all

#: Whole zoo x arrays (8, 20, 32) x RF (4, 16): 36 points.
SMALL_GRID = ((8, 20, 32), (4, 16))
SMALL_CYCLES = 135547854.55
SMALL_ENERGY = 215355129423.2

#: The benchmark's grid, whole zoo x arrays 8..32 step 4 x RF (4, 8,
#: 16, 32): 168 points.
BENCH_GRID = (tuple(range(8, 33, 4)), (4, 8, 16, 32))
BENCH_CYCLES = 509810441.0375
BENCH_ENERGY = 985117031228.0


def grid_jobs(grid):
    sizes, rfs = grid
    return design_space_jobs(list(build_all().values()), array_sizes=sizes,
                             rf_entries=rfs)


def sums(points):
    return (math.fsum(p.cycles for p in points),
            math.fsum(p.energy for p in points))


@pytest.mark.parametrize("use_cache", [False, True])
def test_small_grid_sums_pinned(use_cache):
    engine = SweepEngine(max_workers=1, use_cache=use_cache)
    assert sums(engine.run(grid_jobs(SMALL_GRID))) == (SMALL_CYCLES,
                                                       SMALL_ENERGY)


def test_benchmark_grid_sums_pinned():
    points = SweepEngine(max_workers=1).run(grid_jobs(BENCH_GRID))
    assert len(points) == 168
    assert sums(points) == (BENCH_CYCLES, BENCH_ENERGY)


def test_disk_backed_cold_run_counts_no_entries(tmp_path, monkeypatch):
    """A disk-backed cold sweep writes exactly one ``networks`` row per
    point and nothing else; ``simulate()`` never counts the store, whose
    state is read on demand and stays exact."""
    jobs = grid_jobs(SMALL_GRID)
    engine = SweepEngine(max_workers=1, cache_dir=tmp_path)
    with monkeypatch.context() as patch:
        def no_count(self):
            raise AssertionError("store entry count during the sweep")
        patch.setattr(DiskCache, "__len__", no_count)
        points = engine.run(jobs)
    assert sums(points) == (SMALL_CYCLES, SMALL_ENERGY)
    for point in points:
        assert point.report.cache_stats.disk is None
        assert point.report.cache_stats.lookups > 0
    stats = engine.cache_stats
    engine.close()
    with closing(sqlite3.connect(str(tmp_path / DB_FILENAME))) as conn:
        tables = {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        (rows,) = conn.execute("SELECT COUNT(*) FROM networks").fetchone()
    assert tables == {"meta", "networks"}
    assert stats.disk.entries == rows == stats.disk.writes == len(jobs)
    assert stats.disk.network_misses == len(jobs)
