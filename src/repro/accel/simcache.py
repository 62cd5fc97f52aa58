"""Memoization of per-layer simulation results.

Analytical layer simulation is pure: a :class:`LayerReport` is fully
determined by the layer geometry, the dataflow, and the subset of
machine parameters that dataflow actually reads.  Networks like
1.0-SqNxt-23 repeat identical layer shapes dozens of times, and
parameter sweeps change one knob at a time — so both within one network
and across sweep points most layer simulations are recomputations.
:class:`SimulationCache` removes them without changing a single bit of
any report.

Cache-key fingerprint rules
---------------------------

An entry is keyed by ``(shape, dataflow, fingerprint, buffer signature,
energy model)``:

* **shape** — every :class:`~repro.accel.workload.ConvWorkload` field
  except ``name`` and ``category``; two layers with the same geometry
  share an entry and the report's name/category are rebound on hit.
* **dataflow** — "WS" or "OS".  Entries are cached *per dataflow*,
  before hybrid selection, so the selection policy and objective are
  applied at lookup time and never invalidate anything.
* **fingerprint** — only the config fields the dataflow reads.  Both
  dataflows depend on the array geometry, ``preload_elems_per_cycle``,
  ``weight_sparsity``, ``batch_size``, ``bytes_per_element`` and the
  DRAM numbers (latency, bandwidth-per-cycle).  In addition:

  - WS depends on ``ws_tap_fold_limit`` — and on nothing else; in
    particular an RF-size sweep never invalidates a WS entry.
  - OS depends on ``rf_entries_per_pe`` (the per-PE accumulation group),
    ``preload_buffer_bytes``, ``broadcast_lanes`` and
    ``drain_elems_per_cycle``.

* **buffer signature** — ``global_buffer_bytes`` enters the DRAM model
  only through discrete residency decisions, so the key stores those
  decisions instead of the raw capacity: a buffer-size sweep leaves
  every layer whose operands fit (or chunk identically) at both sizes
  cache-hot.  See :func:`buffer_signature`.
* **energy model** — the (frozen, hashable) unit-energy table.

``AcceleratorConfig.name``, ``policy``, ``objective`` and
``frequency_hz``-only renames never invalidate entries (frequency
enters solely via the derived ``dram_bytes_per_cycle``, which is part
of the fingerprint).

Persistence
-----------

:class:`SimulationCache` lives in memory, for one process.  What
persists across runs is whole points: the sweep engine's store
(:class:`repro.accel.diskcache.DiskCache`) keeps each finished
:class:`~repro.accel.report.NetworkReport` under
:func:`network_cache_key`, not under the layer keys above.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Tuple

from repro import obs
from repro.accel.config import AcceleratorConfig
from repro.accel.diskcache import DiskCacheStats
from repro.accel.dram import (
    _RESIDENT_FRACTION,
    _STREAM_FRACTION,
    _buffer_elems,
    _fits,
)
from repro.accel.energy import EnergyModel
from repro.accel.report import LayerReport
from repro.accel.workload import ConvWorkload


def workload_shape_key(workload: ConvWorkload) -> Tuple:
    """Geometry of a layer, independent of its name and category."""
    return (
        workload.in_channels, workload.out_channels,
        workload.kernel_h, workload.kernel_w,
        workload.stride_h, workload.stride_w,
        workload.in_h, workload.in_w, workload.out_h, workload.out_w,
        workload.groups, workload.is_fc,
    )


def config_fingerprint(config: AcceleratorConfig, dataflow: str) -> Tuple:
    """The config fields the given dataflow's simulation reads.

    ``global_buffer_bytes`` is deliberately absent — it is keyed through
    :func:`buffer_signature` instead (see the module docstring).
    """
    common = (
        config.array_rows, config.array_cols,
        config.preload_elems_per_cycle, config.weight_sparsity,
        config.batch_size, config.bytes_per_element,
        config.dram_latency_cycles, config.dram_bytes_per_cycle,
    )
    if dataflow == "WS":
        return common + (config.ws_tap_fold_limit,)
    if dataflow == "OS":
        return common + (
            config.rf_entries_per_pe, config.preload_buffer_bytes,
            config.broadcast_lanes, config.drain_elems_per_cycle,
        )
    raise ValueError(f"uncacheable dataflow {dataflow!r}")


def buffer_signature(workload: ConvWorkload, dataflow: str,
                     config: AcceleratorConfig) -> Tuple:
    """How ``global_buffer_bytes`` enters one layer's DRAM traffic.

    Mirrors :mod:`repro.accel.dram` exactly: under WS the buffer matters
    only through the two fits-in-buffer booleans and, when neither
    operand fits, the two chunk counts; under OS through the streamed
    weights' fit and — only when some input block overflows the
    resident budget — the budget itself (the overflow excess depends on
    it continuously, so such layers are invalidated by any buffer
    change).
    """
    weights = float(workload.weight_elems)
    if dataflow == "OS":
        fits_w = _fits(weights, config)
        budget = _buffer_elems(config, _RESIDENT_FRACTION)
        # The input halo grows monotonically with the block dimensions,
        # so every block fits the resident budget iff the largest
        # (full-tile) block does — no need to enumerate the tiling.
        bh = min(config.array_rows, workload.out_h)
        bw = min(config.array_cols, workload.out_w)
        in_block = (((bh - 1) * workload.stride_h + workload.kernel_h)
                    * ((bw - 1) * workload.stride_w + workload.kernel_w))
        if in_block * workload.group_in_channels <= budget:
            return ("os", fits_w, True)
        return ("os", fits_w, budget)
    inputs = float(workload.input_elems)
    fits_w = _fits(weights, config)
    fits_i = _fits(inputs, config)
    if fits_w or fits_i:
        return ("ws", fits_w, fits_i)
    budget = _buffer_elems(config, _STREAM_FRACTION)
    return ("ws", -(-weights // budget), -(-inputs // budget))


def layer_cache_key(workload: ConvWorkload, dataflow: str,
                    config: AcceleratorConfig,
                    energy_model: EnergyModel) -> Hashable:
    """Canonical cache key for one (layer, dataflow, machine) report."""
    return (
        workload_shape_key(workload),
        dataflow,
        config_fingerprint(config, dataflow),
        buffer_signature(workload, dataflow, config),
        energy_model,
    )


def workloads_digest(workloads: Sequence[ConvWorkload]) -> bytes:
    """Digest of a workload list, shareable across sweep points.

    A design-space sweep evaluates the same network on many configs;
    computing this once per network and passing it to
    :func:`network_cache_key` keeps the per-point keying cost flat.
    """
    digest = hashlib.sha256()
    for workload in workloads:
        digest.update(repr(workload).encode())
        digest.update(b"\x00")
    return digest.digest()


def network_cache_key(network_name: str,
                      workloads: Sequence[ConvWorkload],
                      config: AcceleratorConfig,
                      energy_model: EnergyModel,
                      digest: Optional[bytes] = None) -> str:
    """Digest keying one whole-network report in the sweep store.

    Unlike layer keys this deliberately includes the *full* config (and
    the network name): a whole-network entry bakes in hybrid dataflow
    selection, so any knob that could flip a per-layer choice must
    invalidate it.  Pass a precomputed ``digest``
    (:func:`workloads_digest`) to skip re-hashing the workload list.
    """
    key = hashlib.sha256()
    for part in (network_name, repr(config), repr(energy_model)):
        key.update(part.encode())
        key.update(b"\x00")
    key.update(digest if digest is not None else workloads_digest(workloads))
    return key.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Observable cache behaviour, surfaced on :class:`NetworkReport`.

    From :meth:`SimulationCache.stats`, every field is cache-wide.  On a
    :class:`NetworkReport`, ``hits``/``misses`` count the lookups made
    while simulating *that* network and ``evictions`` and ``entries``
    are the memory tier's totals at the time the report was built.
    ``disk`` is set only on the ``cache_stats`` of a
    :class:`~repro.core.sweep.SweepEngine` with a store.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    #: The sweep store's counters (see above; else None).
    disk: Optional[DiskCacheStats] = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class SimulationCache:
    """Thread-safe LRU cache of per-dataflow :class:`LayerReport` values.

    Safe to share across simulators, machine configurations and threads
    (the :class:`~repro.core.sweep.SweepEngine` does all three).  With
    ``max_entries=None`` the cache is unbounded; otherwise least
    recently used entries are evicted and counted.

    While a tracer is active (:mod:`repro.obs`) every hit, miss and
    eviction also bumps the ``simcache.hits`` / ``simcache.misses`` /
    ``simcache.evictions`` counters — each obs counter delta equals the
    corresponding :meth:`stats` counter delta over the traced region.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, LayerReport]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable) -> Optional[LayerReport]:
        """Look up a report; counts a hit or a miss."""
        with self._lock:
            report = self._entries.get(key)
            if report is None:
                self._misses += 1
                obs.count("simcache.misses")
                return None
            if self.max_entries is not None:
                # Recency only matters when eviction can happen.
                self._entries.move_to_end(key)
            self._hits += 1
            obs.count("simcache.hits")
            return report

    def put(self, key: Hashable, report: LayerReport) -> None:
        """Insert (or refresh) a report, evicting LRU entries if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = report
            if (self.max_entries is not None
                    and len(self._entries) > self.max_entries):
                self._entries.popitem(last=False)
                self._evictions += 1
                obs.count("simcache.evictions")

    def clear(self) -> None:
        """Drop all entries; the hit/miss/evict counters survive."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    def stats(self) -> CacheStats:
        """Cache-wide counter snapshot."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              entries=len(self._entries))
