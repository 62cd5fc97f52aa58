"""The design-space sweep phase: the paper's own job, on the simulator.

One unit runs a cold pass of the whole grid into a fresh cache
directory (simulator plus layer-cache and sqlite writes), then several
warm passes on new engines over that directory (whole-network index
reads plus the streaming Pareto frontier).  One worker thread keeps the
cache counters exact, so they must repeat from unit to unit and run to
run.
"""

from __future__ import annotations

import math
import shutil
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List

import numpy as np

from harness import Spans, check, median, quantile
from repro.accel import AcceleratorSimulator
from repro.core import (
    SweepEngine,
    SweepPoint,
    design_space_jobs,
    streaming_sweep_frontier,
    sweep_dominates,
)

ARRAY_SIZES = tuple(range(8, 33, 4))
RF_ENTRIES = (4, 8, 16, 32)
WARM_PASSES = 8
#: Points re-simulated from scratch by the end-of-run check.
UNCACHED_SAMPLE = 6


def sweep_engine(cache_dir) -> SweepEngine:
    return SweepEngine(mode="thread", max_workers=1, cache_dir=cache_dir)


def _collect(points: Iterable[SweepPoint],
             into: List[SweepPoint]) -> Iterator[SweepPoint]:
    for point in points:
        into.append(point)
        yield point


def _reference_frontier(points: List[SweepPoint]) -> List[str]:
    """Brute-force non-dominated labels: the oracle for the frontier."""
    return sorted(p.label for p in points
                  if not any(sweep_dominates(q, p) for q in points))


class SweepPhase:
    kind = "sweep"

    def __init__(self, zoo: Dict[str, object], rng: np.random.Generator,
                 workdir: Path, spans: Spans, tiny: bool) -> None:
        networks = list(zoo.values())
        sizes, rfs = ARRAY_SIZES, RF_ENTRIES
        if tiny:
            networks, sizes, rfs = networks[:2], (8, 16), (8, 16)
        self.networks = networks
        jobs = design_space_jobs(networks, sizes, rfs)
        # The seed fixes the order the engine sees the points in; the
        # set of points, and so every counter, is the same for any seed.
        self.jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        self.configs = list(dict.fromkeys(job.config for job in jobs))
        self.rng = rng
        self.workdir = workdir
        self.spans = spans
        self.warm_passes = 2 if tiny else WARM_PASSES
        self.cold_s: List[float] = []
        self.warm_s: List[float] = []
        self.close_ms: List[float] = []
        self.frontier_ms: List[float] = []
        self.simulate_ms: List[float] = []
        self.counters: Dict[str, float] = {}
        self.network_hits = 0
        self.reports: Dict[str, object] = {}
        self.labels = {(job.network.name, job.config): job.label
                       for job in self.jobs}
        self.frontier: List[str] = []
        self.points_done = 0

    def unit(self) -> None:
        cache_dir = self.workdir / f"sweepcache-{len(self.cold_s)}"
        try:
            self._cold_and_warm(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self._uncached_simulate()

    def _cold_and_warm(self, cache_dir: Path) -> None:
        spans = self.spans
        start = time.perf_counter()
        with spans("core.sweep.cold_pass", points=len(self.jobs)):
            engine = sweep_engine(cache_dir)
            points = engine.run(self.jobs)
        stats = engine.cache_stats
        close_start = time.perf_counter()
        with spans("accel.diskcache.close"):
            engine.close()
        end = time.perf_counter()
        self.cold_s.append(end - start)
        self.close_ms.append((end - close_start) * 1e3)
        self.points_done += len(points)
        counters = {
            "accel.simcache.hit_ratio": stats.hit_rate,
            "accel.simcache.misses": stats.misses,
            "accel.diskcache.writes": stats.disk.writes,
            "accel.sim_cycles_total": math.fsum(p.cycles for p in points),
        }
        if not self.counters:
            self.counters = counters
            self.reports = {p.label: p.report for p in points}
            self.frontier = _reference_frontier(points)
        check(counters == self.counters,
              f"cold-pass counters moved between passes: {counters} vs "
              f"{self.counters}")
        check(all(self.reports[p.label] == p.report for p in points),
              "a cold pass disagrees with the first cold pass")

        for _ in range(self.warm_passes):
            warm: List[SweepPoint] = []
            start = time.perf_counter()
            with spans("core.sweep.warm_pass", points=len(self.jobs)):
                engine = sweep_engine(cache_dir)
                frontier = streaming_sweep_frontier(
                    _collect(engine.run_iter(self.jobs), warm))
                engine.close()
            self.warm_s.append(time.perf_counter() - start)
            self.points_done += len(warm)
            stats = engine.cache_stats
            check(stats.misses == 0 and stats.disk.network_misses == 0,
                  f"warm pass missed the cache: {stats}")
            check(stats.disk.network_hits == len(self.jobs),
                  f"warm pass served {stats.disk.network_hits} of "
                  f"{len(self.jobs)} points from the network index")
            check([p.report for p in warm] == [p.report for p in points],
                  "warm reports differ from the cold pass")
            check(sorted(p.label for p in frontier) == self.frontier,
                  "streaming frontier differs from the brute-force one")
            check(math.fsum(p.cycles for p in warm)
                  == self.counters["accel.sim_cycles_total"],
                  "simulated cycles moved between passes")
            self.network_hits = stats.disk.network_hits

        start = time.perf_counter()
        with spans("core.pareto.frontier"):
            streaming_sweep_frontier(warm)
        self.frontier_ms.append((time.perf_counter() - start) * 1e3)

    def _uncached_simulate(self) -> None:
        """Simulate every network on one seeded config, uncached."""
        config = self.configs[self.rng.integers(len(self.configs))]
        start = time.perf_counter()
        reports = []
        for network in self.networks:
            with self.spans("accel.simulate", network=network.name):
                reports.append(AcceleratorSimulator(
                    config, use_cache=False).simulate(network))
        self.simulate_ms.append((time.perf_counter() - start) * 1e3)
        for network, report in zip(self.networks, reports):
            label = self.labels[network.name, config]
            check(report == self.reports[label],
                  f"uncached simulation of {label} differs from the sweep")

    def final_check(self) -> None:
        """A seeded sample re-run on a cache-free engine must match."""
        picks = self.rng.choice(len(self.jobs), size=min(
            UNCACHED_SAMPLE, len(self.jobs)), replace=False)
        sample = [self.jobs[i] for i in picks]
        engine = SweepEngine(mode="thread", max_workers=1, use_cache=False)
        for point in engine.run(sample):
            check(point.report == self.reports[point.label],
                  f"{point.label}: cached sweep differs from uncached")

    def end_to_end(self) -> Dict[str, float]:
        n = len(self.jobs)
        return {
            "sweep_cold_pts_per_s": n / median(self.cold_s),
            "sweep_warm_pts_per_s": n / median(self.warm_s),
        }

    def per_layer(self) -> Dict[str, float]:
        cold_ms = [s * 1e3 for s in self.cold_s]
        warm_ms = [s * 1e3 for s in self.warm_s]
        return {
            "accel.simulate_ms": median(self.simulate_ms),
            "accel.diskcache.close_ms": median(self.close_ms),
            **self.counters,
            "accel.diskcache.network_hits": self.network_hits,
            "core.sweep.cold_pass_ms": median(cold_ms),
            "core.sweep.cold_pass_p90_ms": quantile(cold_ms, 0.9),
            "core.sweep.warm_pass_ms": median(warm_ms),
            "core.sweep.warm_pass_p90_ms": quantile(warm_ms, 0.9),
            "core.pareto.frontier_ms": median(self.frontier_ms),
        }
