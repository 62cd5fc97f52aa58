"""Persistent store of whole-network simulation reports.

A design-space sweep (§4's exhaustive hardware×model enumeration)
evaluates one :class:`~repro.accel.report.NetworkReport` per (network,
machine) point.  :class:`DiskCache` keeps each finished point in one
sqlite table keyed by :func:`repro.accel.simcache.network_cache_key`, so
a re-run over the same store — in this process, another process, or
next week — reads every finished point back instead of simulating it.
That is how an interrupted sweep resumes.  Layer reuse *within* a run
is the in-memory :class:`~repro.accel.simcache.SimulationCache`'s job;
the store holds no per-layer rows.

Design points
-------------

* **Row format** — one row per point: the report's header fields, each
  distinct layer body (dataflow, MACs, cycles, energy and its
  breakdown) once, and ``[name, category, body index]`` per layer.
  Layers sharing a shape share a body, so rows stay small and a read
  decodes each body once.  Floats round-trip bit-identically: ``json``
  emits ``repr``-precision literals.
* **Write-behind batching** — :meth:`put` encodes the report and
  appends it to an in-memory pending dict; rows reach sqlite in one
  transaction per :meth:`flush` (every ``flush_every`` puts, on
  :meth:`close`, and at the end of each sweep chunk).  :meth:`get`
  consults the pending dict first, so write-behind is invisible to
  readers in this process.
* **Entry counts on demand** — :meth:`stats` (and ``len``) counts the
  rows exactly: one ``COUNT(*)`` plus one probe per pending key.  A
  report's own ``cache_stats`` never asks; the sweep engine's
  ``cache_stats`` does, when read.
* **Concurrent writers** — sqlite serializes writers internally; we open
  with a generous ``busy_timeout`` and each flush is a single small
  transaction, so many sweep workers can share one database file.
  Writers racing on one key carry identical bytes (simulation is
  deterministic), so ``INSERT OR IGNORE`` keeps the first row and
  ``writes`` counts only rows that reached the table.
* **Versioning** — the database carries a ``schema_version`` stamp.  A
  mismatch (or a corrupt file) drops the entries, and any legacy
  per-layer ``reports`` table, instead of serving stale or unreadable
  rows.  Bump :data:`SCHEMA_VERSION` whenever the key or row format
  changes.
* **Fork safety** — connections are opened lazily and re-opened when the
  pid changes, so a ``SweepEngine(mode="process")`` parent can hold a
  store while its forked workers open their own connections to the same
  file.

While a tracer is active (:mod:`repro.obs`) every lookup and write
bumps ``simcache.disk.network_hits`` / ``simcache.disk.network_misses``
/ ``simcache.disk.writes``, and each flush refreshes the
``simcache.disk.bytes`` gauge — the counter deltas equal the
:meth:`stats` deltas over the traced region.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.accel.report import LayerReport, NetworkReport
from repro.graph.categories import LayerCategory

_CATEGORIES = {str(c): c for c in LayerCategory}

#: Bump on any change to the key or row format; mismatched stores are
#: dropped and rebuilt on open.
SCHEMA_VERSION = 2

#: Database file name inside a cache directory.
DB_FILENAME = "simcache.sqlite"


@dataclass(frozen=True)
class DiskCacheStats:
    """Observable store behaviour (this process's view)."""

    network_hits: int = 0     # points served from the store
    network_misses: int = 0
    writes: int = 0           # rows this process added to the table
    entries: int = 0          # rows in sqlite + pending rows not yet in it
    size_bytes: int = 0       # database file size after the last flush


def _dump_row(report: NetworkReport) -> str:
    """One row's payload: distinct layer bodies plus per-layer refs."""
    bodies: List[list] = []
    index: Dict[Tuple, int] = {}
    refs = []
    for layer in report.layers:
        breakdown = layer.energy_breakdown
        body = (layer.dataflow, layer.macs, layer.compute_cycles,
                layer.dram_cycles, layer.total_cycles, layer.energy,
                tuple(breakdown.items()))
        i = index.get(body)
        if i is None:
            i = index[body] = len(bodies)
            bodies.append([*body[:-1], breakdown])
        refs.append((layer.name, str(layer.category), i))
    return json.dumps({
        "network": report.network,
        "machine": report.machine,
        "policy": report.policy,
        "frequency_hz": report.frequency_hz,
        "num_pes": report.num_pes,
        "bodies": bodies,
        "layers": refs,
    })


def _load_row(payload: str) -> NetworkReport:
    """Rebuild a report; layers sharing a body share its breakdown."""
    data = json.loads(payload)
    bodies = data["bodies"]
    return NetworkReport(
        network=data["network"],
        machine=data["machine"],
        policy=data["policy"],
        # Positional construction: this runs per layer per warm point.
        layers=[LayerReport(name, _CATEGORIES[category], *bodies[i])
                for name, category, i in data["layers"]],
        frequency_hz=data["frequency_hz"],
        num_pes=data["num_pes"],
    )


class DiskCache:
    """Append-mostly sqlite store of whole :class:`NetworkReport` rows.

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
        #: key -> encoded row awaiting the next flush.
        self._pending: Dict[str, str] = {}
        self._network_hits = 0
        self._network_misses = 0
        self._writes = 0
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
            "CREATE TABLE IF NOT EXISTS networks (key TEXT PRIMARY KEY, "
            "payload TEXT NOT NULL)")
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
        if row is not None and row[0] != str(SCHEMA_VERSION):
            # Clean invalidation on format change: drop every entry
            # (and the per-layer table of version 1) rather than
            # misinterpreting old payloads.
            conn.execute("DROP TABLE IF EXISTS reports")
            conn.execute("DELETE FROM networks")
        if row is None or row[0] != str(SCHEMA_VERSION):
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

    # -- store protocol ----------------------------------------------------

    def get(self, key: str) -> Optional[NetworkReport]:
        """Look up one point's report; counts a network hit or miss.

        A row that cannot be decoded degrades to a miss, and the caller
        simulates.
        """
        with self._lock:
            payload = self._pending.get(key)
            if payload is None:
                row = self._connection().execute(
                    "SELECT payload FROM networks WHERE key = ?",
                    (key,)).fetchone()
                payload = row[0] if row is not None else None
            try:
                report = None if payload is None else _load_row(payload)
            except (ValueError, KeyError, IndexError, TypeError):
                report = None
            if report is None:
                self._network_misses += 1
                obs.count("simcache.disk.network_misses")
                return None
            self._network_hits += 1
            obs.count("simcache.disk.network_hits")
            return report

    def put(self, key: str, report: NetworkReport) -> None:
        """Queue one point's report for the next write-behind flush."""
        payload = _dump_row(report)
        with self._lock:
            self._pending[key] = payload
            if len(self._pending) >= self.flush_every:
                self.flush()

    def flush(self) -> int:
        """Write all pending rows in one transaction.

        Returns the number of rows that reached the table (a key already
        there, e.g. written by another process, is not written again).
        """
        with self._lock:
            if not self._pending:
                return 0
            conn = self._connection()
            before = conn.total_changes
            with conn:  # one transaction for the whole batch
                conn.executemany(
                    "INSERT OR IGNORE INTO networks VALUES (?, ?)",
                    self._pending.items())
            written = conn.total_changes - before
            self._pending.clear()
            if written:
                self._writes += written
                obs.count("simcache.disk.writes", written)
            try:
                self._size_bytes = self.path.stat().st_size
            except OSError:
                self._size_bytes = 0
            obs.gauge("simcache.disk.bytes", self._size_bytes)
            return written

    def close(self) -> None:
        """Flush pending writes and release the sqlite connection."""
        with self._lock:
            if self._conn is not None and self._pid != os.getpid():
                # Never touch (even to close) a connection inherited
                # across a fork; drop the reference and reconnect.
                self._conn = None
                self._pid = None
            if self._pending:
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
            conn = self._connection()
            (count,) = conn.execute("SELECT COUNT(*) FROM networks").fetchone()
            return count + sum(
                1 for key in self._pending
                if conn.execute("SELECT 1 FROM networks WHERE key = ?",
                                (key,)).fetchone() is None)

    def stats(self) -> DiskCacheStats:
        """Counter snapshot for this process's view of the store."""
        with self._lock:
            return DiskCacheStats(
                network_hits=self._network_hits,
                network_misses=self._network_misses,
                writes=self._writes, entries=len(self),
                size_bytes=self._size_bytes)
