"""Hardware parameter tuning: the accelerator side of the co-design loop.

The paper tunes the Squeezelerator twice: the initial design targets
SqueezeNet (PE array size, buffers), and after SqueezeNext is designed a
final tune-up doubles the per-PE register file from 8 to 16 entries to
improve local data reuse.  This module provides those sweeps as
reusable searches over :class:`AcceleratorConfig` values.

All sweeps route through :class:`repro.core.sweep.SweepEngine`: points
run concurrently, share one simulation cache, and come back in a
deterministic order.  Pass ``engine=`` to share a cache across several
sweeps (as the co-design loop does), or ``use_cache=False`` to force
from-scratch simulation.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Optional, Sequence, Union

from repro.accel.config import AcceleratorConfig, squeezelerator
from repro.core.sweep import SweepEngine, SweepJob, SweepPoint, default_objective
from repro.graph.network_spec import NetworkSpec

__all__ = [
    "SweepPoint",
    "array_size_sweep",
    "best_point",
    "buffer_size_sweep",
    "design_space_jobs",
    "design_space_sweep",
    "rf_size_sweep",
    "sparsity_sweep",
    "tune_for_network",
]


def _sweep(network: NetworkSpec,
           configs: Sequence[AcceleratorConfig],
           labels: Sequence[str],
           engine: Optional[SweepEngine] = None,
           use_cache: bool = True) -> List[SweepPoint]:
    """Shared sweep helper; raises ValueError on a configs/labels
    length mismatch instead of silently truncating."""
    if engine is None:
        engine = SweepEngine(use_cache=use_cache)
    return engine.sweep(network, configs, labels)


def rf_size_sweep(
    network: NetworkSpec,
    rf_entries: Sequence[int] = (4, 8, 16, 32),
    array_size: int = 32,
    engine: Optional[SweepEngine] = None,
) -> List[SweepPoint]:
    """The paper's final tune-up, generalized: sweep RF entries per PE."""
    configs = [squeezelerator(array_size, rf) for rf in rf_entries]
    labels = [f"rf={rf}" for rf in rf_entries]
    return _sweep(network, configs, labels, engine=engine)


def array_size_sweep(
    network: NetworkSpec,
    sizes: Sequence[int] = (8, 16, 24, 32),
    rf_entries: int = 8,
    engine: Optional[SweepEngine] = None,
) -> List[SweepPoint]:
    """Sweep the PE array across the paper's stated range (8..32)."""
    configs = [squeezelerator(size, rf_entries) for size in sizes]
    labels = [f"{size}x{size}" for size in sizes]
    return _sweep(network, configs, labels, engine=engine)


def sparsity_sweep(
    network: NetworkSpec,
    sparsities: Sequence[float] = (0.0, 0.2, 0.4, 0.6),
    array_size: int = 32,
    engine: Optional[SweepEngine] = None,
) -> List[SweepPoint]:
    """Sweep the modelled weight sparsity (the paper fixes 40%)."""
    configs = [
        dataclasses.replace(squeezelerator(array_size),
                            weight_sparsity=sparsity)
        for sparsity in sparsities
    ]
    labels = [f"sparsity={sparsity:.0%}" for sparsity in sparsities]
    return _sweep(network, configs, labels, engine=engine)


def buffer_size_sweep(
    network: NetworkSpec,
    buffer_kib: Sequence[int] = (32, 64, 128, 256),
    array_size: int = 32,
    engine: Optional[SweepEngine] = None,
) -> List[SweepPoint]:
    """Sweep the global buffer capacity around the paper's 128 KB."""
    configs = [
        dataclasses.replace(squeezelerator(array_size),
                            global_buffer_bytes=kib * 1024)
        for kib in buffer_kib
    ]
    labels = [f"{kib}KiB" for kib in buffer_kib]
    return _sweep(network, configs, labels, engine=engine)


def best_point(
    points: Sequence[SweepPoint],
    objective: Optional[Callable[[SweepPoint], float]] = None,
) -> SweepPoint:
    """Pick the sweep point minimizing an objective.

    The default objective is :func:`repro.core.sweep.default_objective`:
    fastest first, ties toward the smaller (cheaper) machine — the same
    ranking :func:`tune_for_network` uses, so the two entry points
    cannot disagree.
    """
    if not points:
        raise ValueError("empty sweep")
    if objective is None:
        objective = default_objective
    return min(points, key=objective)


def tune_for_network(
    network: NetworkSpec,
    array_sizes: Sequence[int] = (16, 32),
    rf_entries: Sequence[int] = (8, 16),
    engine: Optional[SweepEngine] = None,
    use_cache: bool = True,
) -> SweepPoint:
    """Joint array-size x RF-size search; returns the fastest machine.

    Ties break toward the smaller (cheaper) machine because the paper
    targets an SOC IP block where area matters (see
    :func:`repro.core.sweep.default_objective`).
    """
    configs: List[AcceleratorConfig] = []
    labels: List[str] = []
    for size in sorted(array_sizes):
        for rf in sorted(rf_entries):
            configs.append(squeezelerator(size, rf))
            labels.append(f"{size}x{size}/rf{rf}")
    points = _sweep(network, configs, labels, engine=engine,
                    use_cache=use_cache)
    return best_point(points)


def design_space_jobs(
    networks: Sequence[NetworkSpec],
    array_sizes: Sequence[int] = (8, 16, 24, 32),
    rf_entries: Sequence[int] = (4, 8, 16, 32),
) -> List[SweepJob]:
    """Enumerate the full Squeezelerator design space over ``networks``.

    The cross product networks x array sizes x RF sizes, in a
    deterministic order (network-major, then array, then RF) — the job
    list behind :func:`design_space_sweep` and the sweep benchmark.
    """
    jobs: List[SweepJob] = []
    for network in networks:
        for size in array_sizes:
            for rf in rf_entries:
                jobs.append(SweepJob(
                    label=f"{network.name}/{size}x{size}/rf{rf}",
                    config=squeezelerator(size, rf),
                    network=network,
                ))
    return jobs


def design_space_sweep(
    networks: Sequence[NetworkSpec],
    array_sizes: Sequence[int] = (8, 16, 24, 32),
    rf_entries: Sequence[int] = (4, 8, 16, 32),
    engine: Optional[SweepEngine] = None,
    stream: bool = False,
) -> Union[List[SweepPoint], Iterator[SweepPoint]]:
    """Sweep the whole accelerator design space across a model zoo.

    This is the million-point entry: every (network, array size, RF
    size) combination, on whatever engine is passed — a process-mode
    engine with a ``cache_dir`` makes re-runs nearly free, and re-running
    an interrupted enumeration with the same ``cache_dir`` resumes it
    (only points missing from the store are simulated).  With
    ``stream=True`` an iterator of points
    is returned as they complete (input order), suitable for feeding
    :func:`repro.core.pareto.streaming_sweep_frontier`.
    """
    if engine is None:
        engine = SweepEngine()
    jobs = design_space_jobs(networks, array_sizes, rf_entries)
    if stream:
        return engine.run_iter(jobs)
    return engine.run(jobs)
