"""Shared parallel sweep engine for the co-design loops.

Every search in this repository — the tuner sweeps, the co-design loop,
the greedy evolver, the hardware-aware NAS, the policy comparisons and
the ablation benchmarks — has the same inner shape: evaluate a list of
(machine config, network) points on the simulator and keep the results
in the order the points were given.  :class:`SweepEngine` is that inner
shape, done once:

* points run concurrently — on a thread pool (``mode="thread"``, the
  default: simulation is pure Python, so workers mostly interleave but
  sweep latency stays bounded by the slowest point), or on a
  ``multiprocessing`` pool (``mode="process"``) that actually scales on
  cores, with chunked job dispatch to amortize IPC;
* result order is deterministic — always the input order, regardless of
  scheduling or mode; thread- and process-mode results are bit-identical;
* all points share one :class:`~repro.accel.simcache.SimulationCache`,
  so a sweep that changes one knob at a time re-simulates only the
  layers that knob invalidates;
* with ``cache_dir=`` the engine keeps a store of whole-network reports
  (:class:`~repro.accel.diskcache.DiskCache`, one sqlite file keyed by
  :func:`~repro.accel.simcache.network_cache_key`) that process workers
  share and later runs reuse: a point already in the store is read
  back, not simulated.  Process workers share only these rows; each
  keeps its own layer cache;
* :meth:`SweepEngine.run_iter` streams points as they complete (input
  order), so partial sweep results are usable live — e.g. feeding an
  incremental :class:`~repro.core.pareto.ParetoFrontier`;
* long sweeps resume: re-run the same sweep with the same ``cache_dir``
  and every finished point comes from the store.  A killed run loses at
  most the write-behind window (``flush_every``, 256 pending points);
  ``run_iter`` flushes after the last point and when abandoned,
  process-mode workers after every chunk.

Environment defaults (overridden by explicit constructor arguments):

* ``SWEEP_MODE`` — ``thread`` (default) or ``process``;
* ``SWEEP_MAX_WORKERS`` — worker count in either mode (the built-in
  default is ``min(8, cpu_count)`` for threads and the full
  ``cpu_count()`` for processes);
* ``SWEEP_CACHE_DIR`` — persistent cache directory.

Cached and uncached engines produce bit-identical sweep results; build
with ``use_cache=False`` to force from-scratch simulation.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro import obs
from repro.accel.config import AcceleratorConfig
from repro.accel.diskcache import DiskCache
from repro.accel.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.accel.report import NetworkReport
from repro.accel.simcache import (
    CacheStats,
    SimulationCache,
    network_cache_key,
    workloads_digest,
)
from repro.accel.simulator import AcceleratorSimulator
from repro.accel.workload import network_workloads
from repro.graph.network_spec import NetworkSpec

_T = TypeVar("_T")
_R = TypeVar("_R")

_MODES = ("thread", "process")


@dataclass(frozen=True)
class SweepPoint:
    """One machine configuration and its simulated cost on a workload."""

    label: str
    config: AcceleratorConfig
    report: NetworkReport

    @property
    def cycles(self) -> float:
        return self.report.total_cycles

    @property
    def energy(self) -> float:
        return self.report.total_energy

    @property
    def inference_ms(self) -> float:
        return self.report.inference_ms


@dataclass(frozen=True)
class SweepJob:
    """One config point of a sweep: simulate ``network`` on ``config``."""

    label: str
    config: AcceleratorConfig
    network: NetworkSpec


def default_objective(point: SweepPoint) -> Tuple[float, int, int]:
    """The canonical sweep objective: fastest, then smallest machine.

    Ties break toward fewer PEs and then a smaller register file,
    because the paper targets an SOC IP block where area matters.  Both
    :func:`repro.core.tuner.best_point` and
    :func:`repro.core.tuner.tune_for_network` rank with this key, so the
    two entry points cannot disagree.
    """
    return (point.cycles, point.config.num_pes,
            point.config.rf_entries_per_pe)


def _default_workers(mode: str = "thread") -> int:
    """Worker count when the caller doesn't pin one.

    ``SWEEP_MAX_WORKERS`` overrides in both modes.  Otherwise thread
    mode keeps the historical ``min(8, cpu_count)`` (GIL-bound workers
    only interleave) while process mode uses every core — that is the
    point of having processes.
    """
    override = os.environ.get("SWEEP_MAX_WORKERS")
    if override:
        workers = int(override)
        if workers < 1:
            raise ValueError("SWEEP_MAX_WORKERS must be positive")
        return workers
    cpus = os.cpu_count() or 1
    return cpus if mode == "process" else min(8, cpus)


# -- process-mode worker side -------------------------------------------------
#
# Workers cannot share the parent's in-memory cache; they share the
# store instead (when a cache_dir is configured).  The initializer runs
# once per worker process; chunks of jobs then arrive through the pool,
# amortizing pickling/IPC over `chunk_size` points.

_WORKER_STATE: Dict[str, object] = {}


def _open_store(cache_dir: Optional[str],
                use_cache: bool) -> Optional[DiskCache]:
    return DiskCache(cache_dir) if use_cache and cache_dir else None


def _init_sweep_worker(cache_dir: Optional[str], use_cache: bool,
                       energy_model: Optional[EnergyModel]) -> None:
    _WORKER_STATE["cache"] = SimulationCache() if use_cache else None
    _WORKER_STATE["store"] = _open_store(cache_dir, use_cache)
    _WORKER_STATE["energy_model"] = energy_model


def _simulate_report(cache: Optional[SimulationCache],
                     store: Optional[DiskCache],
                     energy_model: Optional[EnergyModel],
                     job: SweepJob, workloads: list,
                     digest: Optional[bytes] = None) -> NetworkReport:
    """One point: a store lookup, else a simulation put into the store."""
    if store is not None:
        key = network_cache_key(job.network.name, workloads, job.config,
                                energy_model or DEFAULT_ENERGY_MODEL,
                                digest=digest)
        report = store.get(key)
        if report is not None:
            return report
    report = AcceleratorSimulator(
        job.config, energy_model, cache=cache,
        use_cache=cache is not None).simulate(job.network, workloads)
    if store is not None:
        store.put(key, report)
    return report


def _run_sweep_chunk(chunk: List[SweepJob]) -> List[NetworkReport]:
    cache: Optional[SimulationCache] = _WORKER_STATE["cache"]  # type: ignore
    store: Optional[DiskCache] = _WORKER_STATE["store"]  # type: ignore
    energy_model = _WORKER_STATE["energy_model"]
    # A chunk is pickled as one object, so jobs sharing a NetworkSpec
    # still share it here — extract each distinct network's workload
    # list once per chunk.
    workloads_by_network: Dict[int, list] = {}
    digests: Dict[int, bytes] = {}
    reports: List[NetworkReport] = []
    for job in chunk:
        workloads = workloads_by_network.get(id(job.network))
        if workloads is None:
            workloads = network_workloads(job.network)
            workloads_by_network[id(job.network)] = workloads
            if store is not None:
                digests[id(job.network)] = workloads_digest(workloads)
        reports.append(
            _simulate_report(cache, store, energy_model, job, workloads,
                             digest=digests.get(id(job.network))))
    if store is not None:
        # Write-behind boundary: one sqlite transaction per chunk, so
        # other workers and future runs see these points.
        store.flush()
    return reports


class SweepEngine:
    """Runs sweep points concurrently with a shared simulation cache."""

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[SimulationCache] = None,
        use_cache: bool = True,
        energy_model: Optional[EnergyModel] = None,
        mode: Optional[str] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        mode = mode or os.environ.get("SWEEP_MODE") or "thread"
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        if cache_dir is None:
            cache_dir = os.environ.get("SWEEP_CACHE_DIR") or None
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.max_workers = max_workers or _default_workers(mode)
        self.chunk_size = chunk_size
        self.use_cache = use_cache
        if cache is None and use_cache:
            cache = SimulationCache()
        self.cache = cache
        #: Whole-network report store under ``cache_dir`` (else None).
        self.store = _open_store(self.cache_dir, use_cache)
        self.energy_model = energy_model

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        """Counter snapshot of the shared cache (None when disabled).

        ``disk`` carries the store's counters when there is a store.  In
        process mode this is the *parent's* view; worker processes keep
        their own layer caches and meet only in the store.
        """
        if self.cache is None:
            return None
        stats = self.cache.stats()
        if self.store is None:
            return stats
        return replace(stats, disk=self.store.stats())

    def flush(self) -> None:
        """Write the store's pending points (if there is a store)."""
        if self.store is not None:
            self.store.flush()

    def close(self) -> None:
        """Flush and release the store (if there is one)."""
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def simulate(self, job: SweepJob,
                 workloads: Optional[list] = None,
                 digest: Optional[bytes] = None) -> SweepPoint:
        """Evaluate one sweep point (sharing the engine's cache).

        ``digest`` optionally carries a precomputed
        :func:`~repro.accel.simcache.workloads_digest` so repeated
        points on one network skip re-hashing its workload list.
        """
        if workloads is None:
            workloads = network_workloads(job.network)
        report = _simulate_report(self.cache, self.store, self.energy_model,
                                  job, workloads, digest=digest)
        return SweepPoint(label=job.label, config=job.config, report=report)

    def map_ordered(self, fn: Callable[[_T], _R],
                    items: Iterable[_T]) -> List[_R]:
        """Apply ``fn`` concurrently; results come back in input order."""
        items = list(items)
        if len(items) <= 1 or self.max_workers == 1:
            return [fn(item) for item in items]
        workers = min(self.max_workers, len(items))
        with ThreadPoolExecutor(max_workers=workers) as executor:
            return list(executor.map(fn, items))

    # -- execution ---------------------------------------------------------

    def _execute_threads(self, jobs: Sequence[SweepJob],
                         workloads_by_network: Dict[int, list],
                         digests: Dict[int, bytes],
                         ) -> Iterator[SweepPoint]:
        if not jobs:
            return
        if obs.is_enabled():
            submitted = time.perf_counter()

            def evaluate(job: SweepJob) -> SweepPoint:
                wait_us = (time.perf_counter() - submitted) * 1e6
                with obs.span("sweep.point", label=job.label,
                              network=job.network.name,
                              machine=job.config.name,
                              queue_wait_us=round(wait_us, 1)) as sp:
                    point = self.simulate(
                        job, workloads_by_network[id(job.network)],
                        digest=digests.get(id(job.network)))
                    sp.annotate(cycles=point.cycles)
                obs.count("sweep.points")
                obs.count("sweep.queue_wait_us", wait_us)
                obs.count("sweep.compute_us",
                          (time.perf_counter() - submitted) * 1e6 - wait_us)
                return point
        else:
            def evaluate(job: SweepJob) -> SweepPoint:
                return self.simulate(
                    job, workloads_by_network[id(job.network)],
                    digest=digests.get(id(job.network)))

        if len(jobs) == 1 or self.max_workers == 1:
            for job in jobs:
                yield evaluate(job)
            return
        workers = min(self.max_workers, len(jobs))
        executor = ThreadPoolExecutor(max_workers=workers)
        try:
            yield from executor.map(evaluate, jobs)
        finally:
            executor.shutdown(wait=True, cancel_futures=True)

    def _execute_processes(self, jobs: Sequence[SweepJob]
                           ) -> Iterator[SweepPoint]:
        if not jobs:
            return
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        workers = min(self.max_workers, len(jobs))
        chunk_size = self.chunk_size or max(
            1, min(32, -(-len(jobs) // (workers * 4))))
        chunks = [list(jobs[i:i + chunk_size])
                  for i in range(0, len(jobs), chunk_size)]
        pool = ctx.Pool(
            processes=workers, initializer=_init_sweep_worker,
            initargs=(self.cache_dir, self.use_cache, self.energy_model))
        try:
            for chunk, reports in zip(chunks, pool.imap(_run_sweep_chunk,
                                                        chunks)):
                for job, report in zip(chunk, reports):
                    if obs.is_enabled():
                        obs.count("sweep.points")
                    yield SweepPoint(label=job.label, config=job.config,
                                     report=report)
            pool.close()
            pool.join()
        finally:
            # No-op after a clean close/join; tears the pool down when
            # the consumer abandons the iterator early.
            pool.terminate()
            pool.join()

    def run_iter(self, jobs: Sequence[SweepJob]) -> Iterator[SweepPoint]:
        """Evaluate jobs, yielding each point in input order as soon as
        it (and all earlier points) completed.

        Streaming makes partial sweep results usable live — feed an
        incremental :class:`~repro.core.pareto.ParetoFrontier`, print
        progress, or stop early.  The store is flushed when the iterator
        finishes or is abandoned, so a re-run with the same
        ``cache_dir`` reads every point already yielded from it.
        """
        jobs = list(jobs)
        # Extract each distinct network's workload list once up front —
        # a sweep re-runs the same network on many configs, and the
        # graph-to-workload flattening is config-independent.
        workloads_by_network: Dict[int, list] = {}
        digests: Dict[int, bytes] = {}
        for job in jobs:
            if id(job.network) not in workloads_by_network:
                workloads = network_workloads(job.network)
                workloads_by_network[id(job.network)] = workloads
                if self.store is not None:
                    digests[id(job.network)] = workloads_digest(workloads)
        if self.mode == "process":
            points = self._execute_processes(jobs)
        else:
            points = self._execute_threads(jobs, workloads_by_network,
                                           digests)
        try:
            yield from points
        finally:
            self.flush()

    def run(self, jobs: Sequence[SweepJob]) -> List[SweepPoint]:
        """Evaluate all jobs; deterministic (input) result order.

        While a tracer is active (:mod:`repro.obs`) every thread-mode
        point gets a ``sweep.point`` span carrying its queue wait (time
        between submission and a worker picking the job up) so the trace
        shows the queue-wait vs compute split per point; the cumulative
        split lands on the ``sweep.queue_wait_us`` / ``sweep.compute_us``
        counters.  Process-mode points are counted (``sweep.points``) in
        the parent; worker-process spans are not collected.
        """
        jobs = list(jobs)
        if not obs.is_enabled():
            return list(self.run_iter(jobs))
        with obs.span("sweep.run", jobs=len(jobs), mode=self.mode,
                      workers=min(self.max_workers, max(1, len(jobs)))):
            return list(self.run_iter(jobs))

    def sweep(self, network: NetworkSpec,
              configs: Sequence[AcceleratorConfig],
              labels: Sequence[str]) -> List[SweepPoint]:
        """Evaluate ``network`` on each config, labelled point by point."""
        configs = list(configs)
        labels = list(labels)
        if len(configs) != len(labels):
            raise ValueError(
                f"configs and labels disagree: {len(configs)} configs "
                f"vs {len(labels)} labels")
        return self.run([SweepJob(label=label, config=config, network=network)
                         for config, label in zip(configs, labels)])
