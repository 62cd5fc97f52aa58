"""Unit tests for the persistent store of whole-network reports.

The store's load-bearing contract: a report read back is bit-identical
to the one simulated, write-behind is invisible to readers, the store
survives (and is shared across) process/instance boundaries, and schema
or corruption problems invalidate cleanly instead of serving garbage.
"""

import json
import sqlite3
import sys
import threading
from contextlib import closing

import pytest

from repro import obs
from repro.accel import AcceleratorSimulator, DiskCache, squeezelerator
from repro.accel.diskcache import DB_FILENAME, SCHEMA_VERSION
from repro.accel.energy import DEFAULT_ENERGY_MODEL
from repro.accel.report import LayerReport, NetworkReport
from repro.accel.simcache import network_cache_key
from repro.accel.workload import network_workloads
from repro.core.sweep import SweepEngine
from repro.core.tuner import design_space_jobs
from repro.graph import LayerCategory
from repro.models import squeezenet_v1_1, squeezenext

CONFIG = squeezelerator(32, 8)


def make_layer(name="layer", cycles=100.0, category=LayerCategory.SPATIAL):
    return LayerReport(
        name=name, category=category, dataflow="WS",
        macs=12345, compute_cycles=cycles, dram_cycles=cycles / 3,
        total_cycles=cycles * 1.25, energy=cycles * 7.125,
        energy_breakdown={"rf": 1.5, "dram": 2.25},
    )


def make_report(name="net", layers=None):
    return NetworkReport(network=name, machine="m", policy="HYBRID",
                         layers=layers or [make_layer()],
                         frequency_hz=2.5e8, num_pes=1024)


KEY = "netkey"


def layer_dicts(report):
    return [layer.__dict__ for layer in report.layers]


def tables(path):
    with closing(sqlite3.connect(str(path))) as conn:
        return {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}


class TestStore:
    def test_directory_path_gets_db_filename(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.path == tmp_path / DB_FILENAME

    def test_explicit_sqlite_path(self, tmp_path):
        cache = DiskCache(tmp_path / "sub" / "own.sqlite")
        cache.put(KEY, make_report())
        cache.close()
        assert (tmp_path / "sub" / "own.sqlite").exists()

    def test_rejects_bad_flush_every(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            DiskCache(tmp_path, flush_every=0)

    def test_write_behind_read_your_writes(self, tmp_path):
        """A put is visible to get before any flush touches sqlite."""
        cache = DiskCache(tmp_path, flush_every=1000)
        report = make_report()
        cache.put(KEY, report)
        assert not cache.path.exists() or cache.stats().writes == 0
        assert cache.get(KEY) == report
        assert len(cache) == 1

    def test_flush_batches_one_transaction(self, tmp_path):
        cache = DiskCache(tmp_path, flush_every=1000)
        for i in range(5):
            cache.put(f"k{i}", make_report(name=f"n{i}"))
        assert cache.stats().writes == 0
        assert cache.flush() == 5
        assert cache.stats().writes == 5
        assert cache.flush() == 0  # nothing pending twice

    def test_auto_flush_at_threshold(self, tmp_path):
        cache = DiskCache(tmp_path, flush_every=3)
        for i in range(3):
            cache.put(f"k{i}", make_report(name=f"n{i}"))
        assert cache.stats().writes == 3

    def test_close_flushes_unconnected_pending(self, tmp_path):
        """puts with no intervening get/flush still reach disk."""
        cache = DiskCache(tmp_path, flush_every=1000)
        cache.put(KEY, make_report())
        cache.close()
        assert DiskCache(tmp_path).get(KEY) == make_report()

    def test_cross_instance_sharing_bit_identical(self, tmp_path):
        report = make_report(layers=[make_layer(cycles=1234.567)])
        with DiskCache(tmp_path) as writer:
            writer.put(KEY, report)
        reader = DiskCache(tmp_path)
        loaded = reader.get(KEY)
        assert loaded == report
        assert layer_dicts(loaded) == layer_dicts(report)
        assert reader.stats().network_hits == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("absent") is None
        stats = cache.stats()
        assert (stats.network_hits, stats.network_misses) == (0, 1)

    def test_len_counts_pending_without_double_count(self, tmp_path):
        cache = DiskCache(tmp_path, flush_every=1000)
        cache.put("k1", make_report())
        cache.flush()
        cache.put("k1", make_report())  # pending copy of a row
        cache.put("k2", make_report())
        assert len(cache) == 2


class TestInvalidation:
    def test_schema_mismatch_drops_entries(self, tmp_path):
        with DiskCache(tmp_path) as cache:
            cache.put(KEY, make_report())
        db = tmp_path / DB_FILENAME
        conn = sqlite3.connect(str(db))
        conn.execute("UPDATE meta SET value = ? WHERE key = 'schema_version'",
                     (str(SCHEMA_VERSION + 1),))
        conn.commit()
        conn.close()
        fresh = DiskCache(tmp_path)
        assert fresh.get(KEY) is None
        assert len(fresh) == 0
        # ... and the store was restamped, so entries persist again.
        fresh.put(KEY, make_report())
        fresh.close()
        assert DiskCache(tmp_path).get(KEY) is not None

    def test_corrupt_file_recovers(self, tmp_path):
        db = tmp_path / DB_FILENAME
        db.parent.mkdir(parents=True, exist_ok=True)
        db.write_bytes(b"this is not a database at all" * 10)
        cache = DiskCache(tmp_path)
        assert cache.get(KEY) is None
        cache.put(KEY, make_report())
        cache.close()
        assert DiskCache(tmp_path).get(KEY) == make_report()


class TestConcurrency:
    def test_threaded_writers_share_one_store(self, tmp_path):
        """Many threads flushing into one DiskCache stay consistent."""
        cache = DiskCache(tmp_path, flush_every=4)
        errors = []

        def writer(tid):
            try:
                for i in range(25):
                    cache.put(f"{tid}-{i}", make_report(name=f"t{tid}-{i}"))
                cache.flush()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) == 100
        for tid in range(4):
            for i in range(25):
                assert cache.get(f"{tid}-{i}").network == f"t{tid}-{i}"

    def test_threads_putting_one_key_set_write_each_row_once(self, tmp_path):
        """Threads racing to put the same keys, flushing between puts:
        every row reaches sqlite exactly once."""
        cache = DiskCache(tmp_path, flush_every=3)
        keys = [f"point-{i}" for i in range(60)]
        errors = []

        def writer():
            try:
                for key in keys:
                    cache.put(key, make_report())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        cache.flush()
        assert cache.stats().writes == len(keys) == len(cache)
        cache.close()

    def test_racing_instances_same_key_identical_bytes(self, tmp_path):
        """Two handles writing the same deterministic entry never clash."""
        a, b = DiskCache(tmp_path), DiskCache(tmp_path)
        a.put(KEY, make_report())
        b.put(KEY, make_report())
        assert a.flush() == 1
        assert b.flush() == 0  # the row is already there
        assert a.get(KEY) == b.get(KEY) == make_report()
        a.close(), b.close()
        assert len(DiskCache(tmp_path)) == 1


class TestObservability:
    def test_obs_counters_match_stats_exactly(self, tmp_path):
        """Traced store counters equal the stats() deltas."""
        cache = DiskCache(tmp_path, flush_every=1000)
        cache.put("warm", make_report())
        cache.flush()
        before = cache.stats()
        with obs.tracing() as tracer:
            assert cache.get("warm") is not None     # sqlite hit
            assert cache.get("missing") is None      # miss
            cache.put("new", make_report())
            assert cache.get("new") is not None      # pending hit
            cache.flush()
        after = cache.stats()
        counters = tracer.counters
        assert (counters["simcache.disk.network_hits"]
                == after.network_hits - before.network_hits == 2)
        assert (counters["simcache.disk.network_misses"]
                == after.network_misses - before.network_misses == 1)
        assert (counters["simcache.disk.writes"]
                == after.writes - before.writes == 1)
        assert tracer.gauges["simcache.disk.bytes"] == after.size_bytes > 0


class TestTiering:
    """The store behind a sweep engine: whole points, read back as
    simulated."""

    def test_disk_tier_bit_identical_across_restart(self, tmp_path):
        """Cold sweep -> close -> a fresh engine over the same directory:
        the point comes off disk, equal field for field to the cold run
        and to an uncached simulation, with no layer simulated."""
        jobs = design_space_jobs([squeezenext()], array_sizes=(32,),
                                 rf_entries=(8,))
        with SweepEngine(cache_dir=tmp_path) as cold_engine:
            (cold,) = cold_engine.run(jobs)
        with SweepEngine(cache_dir=tmp_path) as warm_engine:
            (warm,) = warm_engine.run(jobs)
            stats = warm_engine.cache_stats
        uncached = AcceleratorSimulator(CONFIG, use_cache=False).simulate(
            squeezenext())
        assert warm.report == cold.report == uncached
        assert layer_dicts(warm.report) == layer_dicts(uncached)
        assert stats.lookups == 0                 # nothing re-simulated
        assert stats.disk.network_hits == 1

    def test_disk_tier_shared_across_networks(self, tmp_path):
        """One store holds points of several networks; a fresh engine
        resolves each network's point to its own report."""
        networks = [squeezenet_v1_1(), squeezenext()]
        jobs = design_space_jobs(networks, array_sizes=(32,),
                                 rf_entries=(8,))
        with SweepEngine(cache_dir=tmp_path) as first:
            cold = first.run(jobs)
        with SweepEngine(cache_dir=tmp_path) as second:
            warm = second.run(jobs)
            assert second.cache_stats.disk.network_hits == len(networks)
        assert [p.report.network for p in warm] == [n.name for n in networks]
        assert [p.report for p in warm] == [p.report for p in cold]

    def test_known_key_is_written_to_disk_once(self, tmp_path):
        """A second put of a point already in the table (two sweep
        threads simulating one point at once) must not write it again."""
        cache = DiskCache(tmp_path)
        cache.put(KEY, make_report())
        cache.flush()
        cache.put(KEY, make_report())
        cache.flush()
        assert cache.stats().writes == 1
        assert cache.stats().entries == 1
        cache.close()

    def test_no_stray_files_outside_cache_dir(self, tmp_path):
        jobs = design_space_jobs([squeezenet_v1_1()], array_sizes=(32,),
                                 rf_entries=(8,))
        with SweepEngine(cache_dir=tmp_path) as engine:
            engine.run(jobs)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [DB_FILENAME]

    def test_payloads_are_json(self, tmp_path):
        with DiskCache(tmp_path) as cache:
            cache.put(KEY, make_report())
        conn = sqlite3.connect(str(tmp_path / DB_FILENAME))
        ((payload,),) = conn.execute("SELECT payload FROM networks").fetchall()
        conn.close()
        assert json.loads(payload)["network"] == "net"


class TestNetworkTier:
    """Row format: distinct layer bodies once, per-layer references."""

    def seed(self, cache):
        """A network whose third layer shares the second's body under
        another identity (the shape-sharing case)."""
        a = make_layer(name="conv1", cycles=100.0)
        b = make_layer(name="conv2", cycles=250.0)
        rebound = LayerReport(
            name="conv2_clone", category=LayerCategory.POINTWISE,
            dataflow=b.dataflow, macs=b.macs,
            compute_cycles=b.compute_cycles, dram_cycles=b.dram_cycles,
            total_cycles=b.total_cycles, energy=b.energy,
            energy_breakdown=b.energy_breakdown)
        report = make_report(layers=[a, b, rebound])
        cache.put(KEY, report)
        return report

    def test_round_trip_with_identity_rebind(self, tmp_path):
        with DiskCache(tmp_path) as cache:
            stored = self.seed(cache)
        with closing(sqlite3.connect(str(tmp_path / DB_FILENAME))) as conn:
            ((payload,),) = conn.execute(
                "SELECT payload FROM networks").fetchall()
        assert len(json.loads(payload)["bodies"]) == 2  # shared body once
        loaded = DiskCache(tmp_path).get(KEY)
        assert loaded == stored
        assert layer_dicts(loaded) == layer_dicts(stored)
        assert loaded.layers[2].name == "conv2_clone"
        assert loaded.layers[2].category is LayerCategory.POINTWISE

    def test_pending_network_visible_before_flush(self, tmp_path):
        cache = DiskCache(tmp_path, flush_every=1000)
        stored = self.seed(cache)
        assert cache.get(KEY) == stored

    def test_absent_key_is_a_miss(self, tmp_path):
        """Among stored and pending rows, an unknown key still misses."""
        cache = DiskCache(tmp_path, flush_every=1000)
        self.seed(cache)
        cache.flush()
        cache.put("pending", make_report())
        assert cache.get("nope") is None
        assert cache.stats().network_misses == 1

    def test_unresolvable_layer_reference_degrades_to_miss(self, tmp_path):
        """A row whose layer points past its bodies is a miss, so the
        caller simulates instead of failing."""
        with DiskCache(tmp_path) as cache:
            cache.put("dangling", make_report())
        with closing(sqlite3.connect(str(tmp_path / DB_FILENAME))) as conn:
            ((payload,),) = conn.execute(
                "SELECT payload FROM networks").fetchall()
            data = json.loads(payload)
            data["layers"][0][2] = 5
            conn.execute("UPDATE networks SET payload = ?",
                         (json.dumps(data),))
            conn.commit()
        fresh = DiskCache(tmp_path)
        assert fresh.get("dangling") is None
        assert fresh.stats().network_misses == 1

    def test_schema_mismatch_drops_network_entries_too(self, tmp_path):
        """A version-1 store (per-layer ``reports`` table plus index rows
        into it) is rebuilt: its tables and rows are gone, and a sweep
        over it re-simulates every point and equals the uncached run."""
        db = tmp_path / DB_FILENAME
        jobs = design_space_jobs([squeezenet_v1_1()], array_sizes=(16, 32),
                                 rf_entries=(8,))
        keys = [network_cache_key(job.network.name,
                                  network_workloads(job.network), job.config,
                                  DEFAULT_ENERGY_MODEL) for job in jobs]
        with closing(sqlite3.connect(str(db))) as conn:
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, "
                         "value TEXT NOT NULL)")
            conn.execute("CREATE TABLE reports (key TEXT PRIMARY KEY, "
                         "payload TEXT NOT NULL)")
            conn.execute("CREATE TABLE networks (key TEXT PRIMARY KEY, "
                         "payload TEXT NOT NULL)")
            conn.execute("INSERT INTO meta VALUES ('schema_version', '1')")
            conn.execute("INSERT INTO reports VALUES ('(1,)', '{}')")
            conn.executemany(
                "INSERT INTO networks VALUES (?, ?)",
                [(key, json.dumps({"layers": [["(1,)", "c", "spatial"]]}))
                 for key in keys])
            conn.commit()
        with SweepEngine(cache_dir=tmp_path) as engine:
            points = engine.run(jobs)
            disk = engine.cache_stats.disk
        assert tables(db) == {"meta", "networks"}
        assert disk.network_misses == len(jobs)
        assert disk.entries == disk.writes == len(jobs)
        uncached = SweepEngine(use_cache=False).run(jobs)
        assert [layer_dicts(p.report) for p in points] \
            == [layer_dicts(p.report) for p in uncached]

    def test_obs_network_counters_match_stats_exactly(self, tmp_path):
        """Traced store counters equal the engine's ``cache_stats.disk``
        deltas over a cold and a warm sweep."""
        jobs = design_space_jobs([squeezenet_v1_1()], array_sizes=(16, 32),
                                 rf_entries=(8, 16))
        with obs.tracing() as tracer:
            with SweepEngine(cache_dir=tmp_path) as cold:
                cold.run(jobs)
                cold_disk = cold.cache_stats.disk
            with SweepEngine(cache_dir=tmp_path) as warm:
                warm.run(jobs)
                warm_disk = warm.cache_stats.disk
        counters = tracer.counters
        assert (counters["simcache.disk.network_misses"]
                == cold_disk.network_misses + warm_disk.network_misses
                == len(jobs))
        assert (counters["simcache.disk.network_hits"]
                == cold_disk.network_hits + warm_disk.network_hits
                == len(jobs))
        assert (counters["simcache.disk.writes"]
                == cold_disk.writes + warm_disk.writes == len(jobs))
