"""Persistent, cross-process tier of the simulation cache.

Million-point design-space sweeps (§4's exhaustive hardware×model
enumeration) re-pay the whole simulation on every run when the cache is
per-process.  :class:`DiskCache` stores per-dataflow
:class:`~repro.accel.report.LayerReport` values in an sqlite database
keyed by the *same* ``(shape, dataflow, fingerprint, buffer-signature,
energy-model)`` fingerprints :mod:`repro.accel.simcache` already uses,
so a warm re-run — in this process, another process, or next week —
skips straight to deserialization.

Design points
-------------

* **Key encoding** — cache keys are tuples of primitives (ints, floats,
  bools, strings) plus the frozen :class:`~repro.accel.energy.EnergyModel`
  dataclass.  ``repr`` of such a tuple is deterministic across processes
  and Python versions (float ``repr`` is shortest-round-trip since 3.1),
  so the textual key is stable wherever the sweep runs.  Each
  :class:`DiskCache` encodes a distinct key once and remembers the text:
  a cold miss is looked up, put and indexed by a network entry, and
  ``repr`` of the energy-model dataclass is not cheap.
* **Value encoding** — reports go through
  :func:`repro.accel.serialize.layer_report_to_dict` /
  :func:`~repro.accel.serialize.layer_report_from_dict`, whose JSON
  round trip is bit-identical.
* **Write-behind batching** — :meth:`put` only appends to an in-memory
  pending dict; entries reach sqlite in one transaction per
  :meth:`flush` (triggered every ``flush_every`` puts, on :meth:`close`,
  and at the end of each sweep chunk).  The simulation hot path never
  blocks on fsync.  :meth:`get` consults the pending dict first, so
  write-behind is invisible to readers in this process.
* **Per-miss lookups** — a layer key that misses the pending dict and
  the preloaded snapshot costs one ``SELECT``.  It stays: process-mode
  sweep workers share one file, and this probe is how a worker sees
  rows another worker flushed after its snapshot was taken.
* **Entry counts on demand** — :meth:`stats` (and ``len``) counts the
  rows exactly: one ``COUNT(*)`` plus one probe per pending
  write-behind key.  That is why the simulator no longer asks for it
  per network: a report's ``cache_stats`` carries ``disk=None``, and
  the cache-wide disk state is read from
  :meth:`~repro.accel.simcache.SimulationCache.stats` (the sweep
  engine's ``cache_stats``) when wanted.
* **Concurrent writers** — sqlite serializes writers internally; we open
  with a generous ``busy_timeout`` and each flush is a single small
  transaction, so many sweep workers can share one database file.
  Writers racing on the same key write identical bytes (simulation is
  deterministic), making ``INSERT OR REPLACE`` order-independent.
* **Versioning** — the database carries a ``schema_version`` stamp.  A
  mismatch (or a corrupt file) drops and recreates the store instead of
  serving stale or unreadable entries.  Bump :data:`SCHEMA_VERSION`
  whenever the key or value encoding changes.
* **Fork safety** — connections are opened lazily and re-opened when the
  pid changes, so a ``SweepEngine(mode="process")`` parent can hold a
  disk-tier cache while its forked workers open their own connections
  to the same file.
* **Network-level entries** — per-layer lookups still pay the
  simulator's per-option bookkeeping (key building, dataflow selection)
  on every warm point, which caps the warm-run speedup.  The ``networks``
  table therefore stores whole :class:`~repro.accel.report.NetworkReport`
  values as light indexes — header fields plus ``(layer key, name,
  category)`` references into the layer table — so a warm sweep point
  is one lookup, a handful of shared layer decodes, and zero simulator
  machinery.  The first network-level hit triggers :meth:`preload`,
  which pulls the whole layer table into memory in one scan (decoded
  lazily, each payload at most once).

While a tracer is active (:mod:`repro.obs`) every disk lookup and write
bumps ``simcache.disk.hits`` / ``simcache.disk.misses`` /
``simcache.disk.writes``, and each flush refreshes the
``simcache.disk.bytes`` gauge — the counter deltas equal the
:meth:`stats` deltas over the traced region, mirroring the in-memory
tier's exactness guarantee.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Union

from repro import obs
from repro.accel.report import LayerReport, NetworkReport
from repro.accel.serialize import layer_report_from_dict, layer_report_to_dict
from repro.graph.categories import LayerCategory

_CATEGORIES = {str(c): c for c in LayerCategory}

#: Bump on any change to the key or value encoding; mismatched stores
#: are dropped and rebuilt on open.
SCHEMA_VERSION = 1

#: Database file name inside a cache directory.
DB_FILENAME = "simcache.sqlite"

#: Encoded keys a :class:`DiskCache` remembers before starting afresh;
#: bounds the memo on very long sweeps.
_KEY_TEXT_LIMIT = 1 << 16


def encode_key(key: Hashable) -> str:
    """Deterministic textual form of a layer cache key.

    Valid only for keys built from primitives and frozen dataclasses of
    primitives — exactly what :func:`repro.accel.simcache.layer_cache_key`
    produces.
    """
    return repr(key)


@dataclass(frozen=True)
class DiskCacheStats:
    """Observable disk-tier behaviour (cache-wide, this process)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    entries: int = 0      # rows in sqlite + pending write-behind entries
    size_bytes: int = 0   # database file size after the last flush
    network_hits: int = 0     # whole-report lookups served
    network_misses: int = 0
    network_writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class DiskCache:
    """Append-mostly sqlite store of serialized :class:`LayerReport`s.

    ``path`` may be a directory (the database becomes
    ``<path>/simcache.sqlite``, directories are created as needed) or an
    explicit ``.sqlite`` file path.  Thread-safe; safe to share one
    *path* across processes (each process owns its connection).
    """

    def __init__(self, path: Union[str, Path],
                 flush_every: int = 256) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be positive")
        path = Path(path)
        if path.suffix != ".sqlite":
            path = path / DB_FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self.flush_every = flush_every
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        self._pending: Dict[str, LayerReport] = {}
        self._pending_networks: Dict[str, str] = {}
        #: encode_key text per distinct key (see "Key encoding" above).
        self._key_texts: Dict[Hashable, str] = {}
        #: Whole-table snapshot of layer payloads (text, decoded to
        #: LayerReport lazily in place); None until preload().
        self._loaded: Optional[Dict[str, object]] = None
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._network_hits = 0
        self._network_misses = 0
        self._network_writes = 0
        self._size_bytes = 0

    # -- connection management --------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=30.0,
                               check_same_thread=False)
        conn.execute("PRAGMA busy_timeout=30000")
        # The store is a rebuildable cache: trade crash durability for
        # not paying fsync on the sweep hot path.  A corrupt file is
        # detected and dropped on the next open.
        conn.execute("PRAGMA synchronous=OFF")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, "
            "value TEXT NOT NULL)")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS reports (key TEXT PRIMARY KEY, "
            "payload TEXT NOT NULL)")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS networks (key TEXT PRIMARY KEY, "
            "payload TEXT NOT NULL)")
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
        if row is None:
            conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),))
            conn.commit()
        elif row[0] != str(SCHEMA_VERSION):
            # Clean invalidation on format change: drop every entry and
            # restamp rather than misinterpreting old payloads.
            conn.execute("DELETE FROM reports")
            conn.execute("DELETE FROM networks")
            conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),))
            conn.commit()
        return conn

    def _connection(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            # Never reuse a connection across a fork; the child opens
            # its own handle to the same file.
            self._conn = None
            try:
                self._conn = self._connect()
            except sqlite3.DatabaseError:
                # Corrupt or foreign file: a cache may always be rebuilt.
                self.path.unlink(missing_ok=True)
                self._conn = self._connect()
            self._pid = pid
        return self._conn

    # -- cache protocol ----------------------------------------------------

    def preload(self) -> int:
        """Pull the whole layer table into memory in one scan.

        Payloads stay as text and are decoded at most once each, on
        first use.  Worth it whenever many lookups are coming (a warm
        sweep); triggered automatically by the first network-level hit.
        Returns the number of rows loaded.
        """
        with self._lock:
            self._loaded = dict(self._connection().execute(
                "SELECT key, payload FROM reports").fetchall())
            return len(self._loaded)

    def _encode(self, key: Hashable) -> str:
        """:func:`encode_key`, computed once per distinct key (lock held)."""
        text = self._key_texts.get(key)
        if text is None:
            if len(self._key_texts) >= _KEY_TEXT_LIMIT:
                self._key_texts.clear()
            text = self._key_texts[key] = encode_key(key)
        return text

    def _get_text(self, text: str) -> Optional[LayerReport]:
        """Resolve an encoded layer key; no hit/miss accounting."""
        report = self._pending.get(text)
        if report is not None:
            return report
        if self._loaded is not None:
            value = self._loaded.get(text)
            if value is None:
                # The snapshot may predate another writer's flush; fall
                # through to sqlite before declaring a miss.
                pass
            elif isinstance(value, LayerReport):
                return value
            else:
                report = layer_report_from_dict(json.loads(value))
                self._loaded[text] = report  # decode each payload once
                return report
        row = self._connection().execute(
            "SELECT payload FROM reports WHERE key = ?", (text,)).fetchone()
        if row is None:
            return None
        return layer_report_from_dict(json.loads(row[0]))

    def get(self, key: Hashable) -> Optional[LayerReport]:
        """Look up a report; counts a disk hit or miss."""
        with self._lock:
            report = self._get_text(self._encode(key))
            if report is None:
                self._misses += 1
                obs.count("simcache.disk.misses")
                return None
            self._hits += 1
            obs.count("simcache.disk.hits")
            return report

    def put(self, key: Hashable, report: LayerReport) -> None:
        """Queue a report for the next write-behind flush."""
        with self._lock:
            self._pending[self._encode(key)] = report
            if len(self._pending) >= self.flush_every:
                self.flush()

    # -- network-level entries ---------------------------------------------

    def get_network(self, key: str) -> Optional[NetworkReport]:
        """Resolve a whole-network entry, or None.

        A hit decodes the small index payload and resolves each layer
        reference through the (preloaded) layer table; a reference that
        cannot be resolved — e.g. another writer's half-landed state —
        degrades to a miss and the caller simulates.  Layer resolutions
        here do not touch the per-layer hit/miss counters; the
        ``network_hits``/``network_misses`` pair accounts for this path.
        """
        with self._lock:
            payload = self._pending_networks.get(key)
            if payload is None:
                row = self._connection().execute(
                    "SELECT payload FROM networks WHERE key = ?",
                    (key,)).fetchone()
                if row is not None:
                    payload = row[0]
                    if self._loaded is None:
                        # One warm hit implies many more: bulk-load the
                        # layer table instead of paying per-key SELECTs.
                        self.preload()
            if payload is None:
                self._network_misses += 1
                obs.count("simcache.disk.network_misses")
                return None
            data = json.loads(payload)
            layers: List[LayerReport] = []
            for text, name, category in data["layers"]:
                base = self._get_text(text)
                if base is None:
                    self._network_misses += 1
                    obs.count("simcache.disk.network_misses")
                    return None
                if base.name != name or str(base.category) != category:
                    # Direct construction beats dataclasses.replace by
                    # ~4x; this rebind runs per layer per warm point.
                    base = LayerReport(
                        name=name, category=_CATEGORIES[category],
                        dataflow=base.dataflow, macs=base.macs,
                        compute_cycles=base.compute_cycles,
                        dram_cycles=base.dram_cycles,
                        total_cycles=base.total_cycles,
                        energy=base.energy,
                        energy_breakdown=base.energy_breakdown)
                layers.append(base)
            self._network_hits += 1
            obs.count("simcache.disk.network_hits")
            return NetworkReport(
                network=data["network"],
                machine=data["machine"],
                policy=data["policy"],
                layers=layers,
                frequency_hz=float(data["frequency_hz"]),
                num_pes=int(data["num_pes"]),
            )

    def put_network(self, key: str, report: NetworkReport,
                    layer_keys: Sequence[Hashable]) -> None:
        """Queue a whole-network entry (one layer key per report layer).

        The referenced layer entries must be (or become) present in the
        layer table — the simulator's per-layer puts guarantee that for
        reports it just produced.
        """
        if len(layer_keys) != len(report.layers):
            raise ValueError("one layer key per report layer required")
        with self._lock:
            payload = json.dumps({
                "network": report.network,
                "machine": report.machine,
                "policy": report.policy,
                "frequency_hz": report.frequency_hz,
                "num_pes": report.num_pes,
                "layers": [[self._encode(k), layer.name, str(layer.category)]
                           for k, layer in zip(layer_keys, report.layers)],
            })
            self._pending_networks[key] = payload
            if (len(self._pending) + len(self._pending_networks)
                    >= self.flush_every):
                self.flush()

    def flush(self) -> int:
        """Write all pending entries in one transaction; returns count."""
        with self._lock:
            if not self._pending and not self._pending_networks:
                return 0
            rows = [(text, json.dumps(layer_report_to_dict(report)))
                    for text, report in self._pending.items()]
            network_rows = list(self._pending_networks.items())
            conn = self._connection()
            with conn:  # one transaction for the whole batch
                conn.executemany(
                    "INSERT OR REPLACE INTO reports VALUES (?, ?)", rows)
                conn.executemany(
                    "INSERT OR REPLACE INTO networks VALUES (?, ?)",
                    network_rows)
            if self._loaded is not None:
                # Keep the preloaded snapshot current with our writes.
                self._loaded.update(self._pending)
            self._pending.clear()
            self._pending_networks.clear()
            if rows:
                self._writes += len(rows)
                obs.count("simcache.disk.writes", len(rows))
            if network_rows:
                self._network_writes += len(network_rows)
                obs.count("simcache.disk.network_writes", len(network_rows))
            try:
                self._size_bytes = self.path.stat().st_size
            except OSError:
                self._size_bytes = 0
            obs.gauge("simcache.disk.bytes", self._size_bytes)
            return len(rows) + len(network_rows)

    def close(self) -> None:
        """Flush pending writes and release the sqlite connection."""
        with self._lock:
            if self._conn is not None and self._pid != os.getpid():
                # Never touch (even to close) a connection inherited
                # across a fork; drop the reference and reconnect.
                self._conn = None
                self._pid = None
            if self._pending or self._pending_networks:
                self.flush()
            if self._conn is not None:
                self._conn.close()
            self._conn = None
            self._pid = None

    def __enter__(self) -> "DiskCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection().execute(
                "SELECT COUNT(*) FROM reports").fetchone()
            pending = sum(1 for text in self._pending
                          if not self._has_row(text))
            return count + pending

    def _has_row(self, text: str) -> bool:
        return self._connection().execute(
            "SELECT 1 FROM reports WHERE key = ?", (text,)).fetchone() is not None

    def stats(self) -> DiskCacheStats:
        """Counter snapshot for this process's view of the store."""
        with self._lock:
            return DiskCacheStats(
                hits=self._hits, misses=self._misses, writes=self._writes,
                entries=len(self), size_bytes=self._size_bytes,
                network_hits=self._network_hits,
                network_misses=self._network_misses,
                network_writes=self._network_writes)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def writes(self) -> int:
        return self._writes
