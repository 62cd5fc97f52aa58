"""Unit tests for the persistent (sqlite) tier of the simulation cache.

The disk tier inherits the in-memory cache's load-bearing contract —
bit-identical reports whether they came from simulation, memory, or
disk — and adds its own: write-behind is invisible to readers, the
store survives (and is shared across) process/instance boundaries, and
schema or corruption problems invalidate cleanly instead of serving
garbage.
"""

import json
import sqlite3
import sys
import threading

import pytest

from repro import obs
from repro.accel import (
    AcceleratorSimulator,
    DiskCache,
    SimulationCache,
    squeezelerator,
)
from repro.accel.diskcache import DB_FILENAME, SCHEMA_VERSION, encode_key
from repro.accel.report import LayerReport, NetworkReport
from repro.graph import LayerCategory
from repro.models import squeezenet_v1_1, squeezenext

CONFIG = squeezelerator(32, 8)


def make_report(name="layer", cycles=100.0):
    return LayerReport(
        name=name, category=LayerCategory.SPATIAL, dataflow="WS",
        macs=12345, compute_cycles=cycles, dram_cycles=cycles / 3,
        total_cycles=cycles * 1.25, energy=cycles * 7.125,
        energy_breakdown={"rf": 1.5, "dram": 2.25},
    )


KEY = ("shape", 1, 2.5, True, "WS")


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
            cache.put((i,), make_report(name=f"l{i}"))
        assert cache.stats().writes == 0
        assert cache.flush() == 5
        assert cache.stats().writes == 5
        assert cache.flush() == 0  # nothing pending twice

    def test_auto_flush_at_threshold(self, tmp_path):
        cache = DiskCache(tmp_path, flush_every=3)
        for i in range(3):
            cache.put((i,), make_report(name=f"l{i}"))
        assert cache.stats().writes == 3

    def test_close_flushes_unconnected_pending(self, tmp_path):
        """puts with no intervening get/flush still reach disk."""
        cache = DiskCache(tmp_path, flush_every=1000)
        cache.put(KEY, make_report())
        cache.close()
        assert DiskCache(tmp_path).get(KEY) == make_report()

    def test_cross_instance_sharing_bit_identical(self, tmp_path):
        report = make_report(cycles=1234.567)
        with DiskCache(tmp_path) as writer:
            writer.put(KEY, report)
        reader = DiskCache(tmp_path)
        loaded = reader.get(KEY)
        assert loaded == report
        assert loaded.energy_breakdown == report.energy_breakdown
        assert reader.stats().hits == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get(("absent",)) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.lookups) == (0, 1, 1)
        assert stats.hit_rate == 0.0

    def test_len_counts_pending_without_double_count(self, tmp_path):
        cache = DiskCache(tmp_path, flush_every=1000)
        cache.put((1,), make_report())
        cache.flush()
        cache.put((1,), make_report())  # pending overwrite of a row
        cache.put((2,), make_report())
        assert len(cache) == 2

    def test_encode_key_deterministic(self):
        assert encode_key(KEY) == encode_key(("shape", 1, 2.5, True, "WS"))
        assert encode_key((0.1,)) == "(0.1,)"


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
                    cache.put((tid, i), make_report(name=f"t{tid}-{i}"))
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
                assert cache.get((tid, i)).name == f"t{tid}-{i}"

    def test_threads_putting_one_key_set_write_each_row_once(self, tmp_path):
        """Threads racing to put the same keys through a tiered cache,
        flushing between puts: every row reaches sqlite exactly once."""
        disk = DiskCache(tmp_path, flush_every=3)
        cache = SimulationCache(disk=disk)
        keys = [("shape", i) for i in range(60)]
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
        assert disk.stats().writes == len(keys) == len(cache)
        cache.close()

    def test_racing_instances_same_key_identical_bytes(self, tmp_path):
        """Two handles writing the same deterministic entry never clash."""
        a, b = DiskCache(tmp_path), DiskCache(tmp_path)
        a.put(KEY, make_report())
        b.put(KEY, make_report())
        a.flush()
        b.flush()
        assert a.get(KEY) == b.get(KEY) == make_report()
        a.close(), b.close()
        assert len(DiskCache(tmp_path)) == 1


class TestObservability:
    def test_obs_counters_match_stats_exactly(self, tmp_path):
        """Traced disk counters equal the stats() deltas (exactness
        contract, mirroring the in-memory tier's test)."""
        cache = DiskCache(tmp_path, flush_every=1000)
        cache.put(("warm",), make_report())
        cache.flush()
        before = cache.stats()
        with obs.tracing() as tracer:
            assert cache.get(("warm",)) is not None     # sqlite hit
            assert cache.get(("missing",)) is None      # miss
            cache.put(("new",), make_report())
            assert cache.get(("new",)) is not None      # pending hit
            cache.flush()
        after = cache.stats()
        counters = tracer.counters
        assert counters["simcache.disk.hits"] == after.hits - before.hits == 2
        assert (counters["simcache.disk.misses"]
                == after.misses - before.misses == 1)
        assert (counters["simcache.disk.writes"]
                == after.writes - before.writes == 1)
        assert tracer.gauges["simcache.disk.bytes"] == after.size_bytes > 0


class TestTiering:
    def test_disk_tier_bit_identical_across_restart(self, tmp_path):
        """Cold simulate -> close -> reopen with an empty memory tier:
        every layer must come off disk, and the report must equal both
        the cold cached run and an uncached run, field for field."""
        network = squeezenext()
        with SimulationCache(disk=DiskCache(tmp_path)) as cold_cache:
            cold = AcceleratorSimulator(CONFIG, cache=cold_cache).simulate(network)

        warm_cache = SimulationCache(disk=DiskCache(tmp_path))
        warm = AcceleratorSimulator(CONFIG, cache=warm_cache).simulate(network)
        uncached = AcceleratorSimulator(CONFIG).simulate(network)
        assert warm == cold == uncached
        assert [layer_report.__dict__ for layer_report in warm.layers] \
            == [layer_report.__dict__ for layer_report in uncached.layers]
        stats = warm_cache.stats()
        assert stats.misses == 0                  # nothing re-simulated
        # Every unique layer key was served from disk exactly once and
        # promoted; repeats within the run hit the memory tier.
        assert stats.disk.hits == stats.entries
        assert stats.disk.misses == 0
        warm_cache.close()

    def test_disk_tier_shared_across_networks(self, tmp_path):
        """Layers shared between two nets hit disk from a fresh cache."""
        with SimulationCache(disk=DiskCache(tmp_path)) as first:
            AcceleratorSimulator(CONFIG, cache=first).simulate(squeezenet_v1_1())
        second = SimulationCache(disk=DiskCache(tmp_path))
        AcceleratorSimulator(CONFIG, cache=second).simulate(squeezenet_v1_1())
        assert second.stats().misses == 0
        second.close()

    def test_memory_promotion_avoids_second_disk_read(self, tmp_path):
        with SimulationCache(disk=DiskCache(tmp_path)) as seed:
            AcceleratorSimulator(CONFIG, cache=seed).simulate(squeezenet_v1_1())
        cache = SimulationCache(disk=DiskCache(tmp_path))
        AcceleratorSimulator(CONFIG, cache=cache).simulate(squeezenet_v1_1())
        after_first = cache.stats().disk.lookups
        AcceleratorSimulator(CONFIG, cache=cache).simulate(squeezenet_v1_1())
        # Second run is served entirely by the promoted memory tier.
        assert cache.stats().disk.lookups == after_first
        assert cache.stats().misses == 0
        cache.close()

    def test_known_key_is_written_to_disk_once(self, tmp_path):
        """A second put of a key already in memory (two sweep threads
        simulating one layer at once) must not write the row again."""
        disk = DiskCache(tmp_path)
        cache = SimulationCache(disk=disk)
        cache.put(KEY, make_report())
        cache.flush()
        cache.put(KEY, make_report())
        cache.flush()
        assert disk.stats().writes == 1
        assert disk.stats().entries == len(cache) == 1
        cache.close()

    def test_no_stray_files_outside_cache_dir(self, tmp_path):
        with SimulationCache(disk=DiskCache(tmp_path)) as cache:
            AcceleratorSimulator(CONFIG, cache=cache).simulate(squeezenet_v1_1())
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [DB_FILENAME]

    def test_payloads_are_json(self, tmp_path):
        with DiskCache(tmp_path) as cache:
            cache.put(KEY, make_report())
        conn = sqlite3.connect(str(tmp_path / DB_FILENAME))
        ((payload,),) = conn.execute("SELECT payload FROM reports").fetchall()
        conn.close()
        assert json.loads(payload)["name"] == "layer"


def make_network_report(layers):
    return NetworkReport(network="net", machine="m", policy="HYBRID",
                         layers=layers, frequency_hz=2.5e8,
                         num_pes=1024)


class TestNetworkTier:
    """Whole-network entries: an index over the layer table."""

    def seed(self, cache):
        """Two layer rows; the network references one of them twice
        under different identities (the shape-sharing case)."""
        a = make_report(name="conv1", cycles=100.0)
        b = make_report(name="conv2", cycles=250.0)
        cache.put(("ka",), a)
        cache.put(("kb",), b)
        rebound = LayerReport(
            name="conv2_clone", category=LayerCategory.POINTWISE,
            dataflow=b.dataflow, macs=b.macs,
            compute_cycles=b.compute_cycles, dram_cycles=b.dram_cycles,
            total_cycles=b.total_cycles, energy=b.energy,
            energy_breakdown=b.energy_breakdown)
        report = make_network_report([a, b, rebound])
        cache.put_network("netkey", report, [("ka",), ("kb",), ("kb",)])
        return report

    def test_round_trip_with_identity_rebind(self, tmp_path):
        with DiskCache(tmp_path) as cache:
            stored = self.seed(cache)
        loaded = DiskCache(tmp_path).get_network("netkey")
        assert loaded == stored
        assert [layer.__dict__ for layer in loaded.layers] \
            == [layer.__dict__ for layer in stored.layers]
        assert loaded.layers[2].name == "conv2_clone"
        assert loaded.layers[2].category is LayerCategory.POINTWISE

    def test_pending_network_visible_before_flush(self, tmp_path):
        cache = DiskCache(tmp_path, flush_every=1000)
        stored = self.seed(cache)
        assert cache.get_network("netkey") == stored

    def test_absent_key_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get_network("nope") is None
        assert cache.stats().network_misses == 1

    def test_unresolvable_layer_reference_degrades_to_miss(self, tmp_path):
        with DiskCache(tmp_path) as cache:
            report = make_network_report([make_report()])
            cache.put_network("dangling", report, [("never-written",)])
        fresh = DiskCache(tmp_path)
        assert fresh.get_network("dangling") is None
        assert fresh.stats().network_misses == 1

    def test_layer_key_count_must_match(self, tmp_path):
        cache = DiskCache(tmp_path)
        with pytest.raises(ValueError, match="layer key"):
            cache.put_network("k", make_network_report([make_report()]), [])

    def test_first_hit_preloads_layer_table(self, tmp_path):
        with DiskCache(tmp_path) as cache:
            self.seed(cache)
        fresh = DiskCache(tmp_path)
        assert fresh.get_network("netkey") is not None
        # The bulk preload replaced per-key SELECTs: a later layer get
        # is served from the loaded snapshot (still a hit, no new I/O).
        assert fresh.get(("ka",)) is not None
        assert fresh.preload() == 2

    def test_schema_mismatch_drops_network_entries_too(self, tmp_path):
        with DiskCache(tmp_path) as cache:
            self.seed(cache)
        db = tmp_path / DB_FILENAME
        conn = sqlite3.connect(str(db))
        conn.execute("UPDATE meta SET value = ? WHERE key = 'schema_version'",
                     (str(SCHEMA_VERSION + 1),))
        conn.commit()
        conn.close()
        assert DiskCache(tmp_path).get_network("netkey") is None

    def test_obs_network_counters_match_stats_exactly(self, tmp_path):
        cache = DiskCache(tmp_path, flush_every=1000)
        before = cache.stats()
        with obs.tracing() as tracer:
            self.seed(cache)
            assert cache.get_network("netkey") is not None   # pending hit
            assert cache.get_network("absent") is None       # miss
            cache.flush()
        after = cache.stats()
        counters = tracer.counters
        assert (counters["simcache.disk.network_hits"]
                == after.network_hits - before.network_hits == 1)
        assert (counters["simcache.disk.network_misses"]
                == after.network_misses - before.network_misses == 1)
        assert (counters["simcache.disk.network_writes"]
                == after.network_writes - before.network_writes == 1)
        # ... and the layer-row counters stay exact alongside.
        assert (counters["simcache.disk.writes"]
                == after.writes - before.writes == 2)

    def test_simulation_cache_delegates(self, tmp_path):
        memory_only = SimulationCache()
        assert memory_only.get_network("k") is None
        memory_only.put_network("k", make_network_report([]), [])  # no-op
        with SimulationCache(disk=DiskCache(tmp_path)) as tiered:
            report = make_network_report([make_report()])
            tiered.put(("ka",), make_report())
            tiered.put_network("k", report, [("ka",)])
            assert tiered.get_network("k") == report
        assert SimulationCache(
            disk=DiskCache(tmp_path)).get_network("k") == report
