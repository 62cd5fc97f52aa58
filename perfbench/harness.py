"""Statistics, scheduling, tracing and environment helpers for the phases.

Nothing here imports the program under test except :mod:`repro.obs`,
whose standalone :class:`~repro.obs.Tracer` records the benchmark-side
spans of a traced run (the program's own instrumentation stays off).
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: Percentiles tried, highest first, when reporting a latency tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


class CheckFailed(AssertionError):
    """An in-run correctness check failed; the run reports incorrect."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds.

    Unlike ``assert`` this survives ``python -O``.
    """
    if not condition:
        raise CheckFailed(message)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile, ``q`` in [0, 1]."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; falls back to the median when the
    sample is too small for any higher rung.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        # Rounded: (100 - 99.9) is not exactly 0.1 in binary.
        if round(n * (100.0 - pct) / 100.0, 6) >= 10 or pct == 50.0:
            return pct, quantile(values, pct / 100.0)
    raise AssertionError("unreachable: the ladder ends at the median")


class Scheduler:
    """Interleaves unit kinds by time share until the run's seconds end.

    The next unit is always the kind furthest behind its share of the
    time spent so far, so host drift during the run lands on every
    kind alike.  Every kind runs at least ``min_units`` times, however
    short ``seconds`` is; past that, no unit starts that would, at its
    kind's mean duration so far, end after ``seconds``.
    """

    def __init__(self, shares: Dict[str, float], seconds: float,
                 min_units: int) -> None:
        self.shares = dict(shares)
        self.seconds = seconds
        self.min_units = min_units
        self.spent = {kind: 0.0 for kind in shares}
        self.units = {kind: 0 for kind in shares}
        self._start = time.perf_counter()

    def next_kind(self) -> Optional[str]:
        behind = [kind for kind, n in self.units.items()
                  if n < self.min_units]
        kind = min(behind or list(self.shares),
                   key=lambda k: (self.spent[k] / self.shares[k], k))
        if behind:
            return kind
        mean = self.spent[kind] / self.units[kind]
        if time.perf_counter() - self._start + mean > self.seconds:
            return None
        return kind

    def record(self, kind: str, seconds: float) -> None:
        self.spent[kind] += seconds
        self.units[kind] += 1


class Spans:
    """Benchmark-side spans around calls into the program's layers.

    A span's name starts with the layer it times (``accel``, ``core``,
    ``nn``, ``serve``, ``models``; ``bench`` for the benchmark's own
    loop), which is how self time is attributed per layer.  With
    ``enabled=False`` every span is a shared no-op context.
    """

    def __init__(self, enabled: bool) -> None:
        self.tracer = None
        if enabled:
            from repro.obs import Tracer

            self.tracer = Tracer()

    def __call__(self, name: str, **meta: object):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **meta)

    def self_ms_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for record in self.tracer.spans:
            layer = record.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + record.self_us / 1e3
        return totals

    def chrome_trace(self) -> dict:
        from repro.obs import chrome_trace, validate_chrome_trace

        document = chrome_trace(self.tracer)
        validate_chrome_trace(document)
        return document


# -- host drift probe and environment stamp ----------------------------------


def drift_probe() -> Dict[str, float]:
    """Time a fixed pure-Python loop and a fixed numpy GEMM.

    Diagnostic only: a probe that slows between runs points at the
    host, not the program.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    python_ms = (time.perf_counter() - start) * 1e3
    a = np.arange(256 * 256, dtype=np.float64).reshape(256, 256) / 65536.0
    start = time.perf_counter()
    for _ in range(20):
        a @ a
    gemm_ms = (time.perf_counter() - start) * 1e3
    return {"python_loop_ms": round(python_ms, 3),
            "gemm_ms": round(gemm_ms, 3)}


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(
                encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def environment_stamp(root: Path) -> Dict[str, object]:
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "platform": sys.platform,
        "commit": git_commit(root),
    }
