"""Process-mode sweeps, resume from the disk tier, and streaming results.

The contracts under test, in rough order of importance:

* process-mode results are bit- and order-identical to thread-mode
  results, across the whole model zoo;
* a re-run over the same ``cache_dir`` resumes: it re-simulates zero
  completed points, and after an abandoned or killed run it simulates
  exactly the points that had not finished;
* ``run_iter`` streams points in input order and composes with the
  incremental Pareto frontier;
* worker-count policy: ``SWEEP_MAX_WORKERS`` overrides both modes,
  process mode defaults to the full ``cpu_count()``.
"""

import os
import signal
import sqlite3
import time
from contextlib import closing

import pytest

from repro.accel.config import squeezelerator
from repro.accel.diskcache import DB_FILENAME, DiskCache
from repro.accel.simcache import SimulationCache
from repro.core.codesign import CoDesignLoop
from repro.core.pareto import streaming_sweep_frontier, sweep_dominates
from repro.core.sweep import SweepEngine, _default_workers
from repro.core.tuner import design_space_jobs, design_space_sweep
from repro.models import build_all, squeezenet_v1_1, squeezenext


def small_jobs(networks=None, sizes=(16, 32), rfs=(8,)):
    return design_space_jobs(networks or [squeezenet_v1_1()],
                             array_sizes=sizes, rf_entries=rfs)


def as_dicts(points):
    return [(p.label, p.report.network, p.report.machine,
             [layer.__dict__ for layer in p.report.layers])
            for p in points]


class TestProcessMode:
    def test_zoo_wide_bit_and_order_identical_to_threads(self):
        """The acceptance bar: every zoo model, both modes, equal."""
        jobs = small_jobs(networks=list(build_all().values()),
                          sizes=(16, 32), rfs=(8,))
        threaded = SweepEngine(mode="thread").run(jobs)
        processed = SweepEngine(mode="process", max_workers=2,
                                chunk_size=3).run(jobs)
        assert as_dicts(processed) == as_dicts(threaded)
        assert [p.label for p in processed] == [j.label for j in jobs]

    def test_process_workers_share_disk_tier(self, tmp_path):
        """Worker flushes land in the shared store; a warm thread-mode
        run over the same directory then simulates nothing."""
        jobs = small_jobs()
        with SweepEngine(mode="process", max_workers=2,
                         cache_dir=tmp_path) as cold:
            cold_points = cold.run(jobs)
        with SweepEngine(mode="thread", cache_dir=tmp_path) as warm:
            warm_points = warm.run(jobs)
            assert warm.cache_stats.misses == 0
        assert as_dicts(warm_points) == as_dicts(cold_points)

    def test_single_chunk_and_many_chunks_agree(self):
        jobs = small_jobs(sizes=(8, 16, 24, 32), rfs=(8, 16))
        one = SweepEngine(mode="process", chunk_size=len(jobs)).run(jobs)
        many = SweepEngine(mode="process", chunk_size=1).run(jobs)
        assert as_dicts(one) == as_dicts(many)

    def test_empty_job_list(self):
        assert SweepEngine(mode="process").run([]) == []

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SweepEngine(mode="fiber")

    def test_mode_env_default(self, monkeypatch):
        monkeypatch.setenv("SWEEP_MODE", "process")
        assert SweepEngine().mode == "process"
        assert SweepEngine(mode="thread").mode == "thread"


class TestWorkerPolicy:
    def test_process_mode_defaults_to_all_cores(self, monkeypatch):
        monkeypatch.delenv("SWEEP_MAX_WORKERS", raising=False)
        assert _default_workers("process") == (os.cpu_count() or 1)
        assert _default_workers("thread") == min(8, os.cpu_count() or 1)

    def test_env_override_both_modes(self, monkeypatch):
        monkeypatch.setenv("SWEEP_MAX_WORKERS", "3")
        assert SweepEngine(mode="thread").max_workers == 3
        assert SweepEngine(mode="process").max_workers == 3

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("SWEEP_MAX_WORKERS", "3")
        assert SweepEngine(max_workers=5).max_workers == 5

    def test_invalid_env_override_rejected(self, monkeypatch):
        monkeypatch.setenv("SWEEP_MAX_WORKERS", "0")
        with pytest.raises(ValueError, match="SWEEP_MAX_WORKERS"):
            SweepEngine()


class TestRunIter:
    def test_streams_in_input_order_and_equals_run(self):
        jobs = small_jobs(sizes=(8, 16, 32), rfs=(8, 16))
        engine = SweepEngine()
        streamed = []
        for point in engine.run_iter(jobs):
            streamed.append(point)  # usable immediately
        assert as_dicts(streamed) == as_dicts(SweepEngine().run(jobs))
        assert [p.label for p in streamed] == [j.label for j in jobs]

    def test_feeds_streaming_pareto_frontier(self):
        jobs = small_jobs(sizes=(8, 16, 24, 32), rfs=(4, 8, 16, 32))
        engine = SweepEngine()
        frontier = streaming_sweep_frontier(engine.run_iter(jobs))
        points = SweepEngine().run(jobs)
        batch = [p for p in points
                 if not any(sweep_dominates(q, p) for q in points)]
        assert frontier.seen == len(jobs)
        assert as_dicts(frontier.points) == as_dicts(batch)


class TestResume:
    """Resuming a sweep means re-running it with the same ``cache_dir``:
    every point already in the disk tier's network index is served
    without simulation, the rest are simulated."""

    def test_resume_simulates_zero_points(self, tmp_path):
        jobs = small_jobs(sizes=(16, 32), rfs=(8, 16))
        with SweepEngine(cache_dir=tmp_path) as first:
            cold = first.run(jobs)
        with SweepEngine(cache_dir=tmp_path) as again:
            resumed = again.run(jobs)
            stats = again.cache_stats
        assert stats.lookups == 0  # no layer was simulated
        assert stats.disk.network_hits == len(jobs)
        assert as_dicts(resumed) == as_dicts(cold)

    def test_abandoned_run_resumes_remainder_only(self, tmp_path):
        """A consumer that stops after k points leaves exactly those k
        in the network index; the re-run simulates only the rest."""
        jobs = small_jobs(sizes=(8, 16, 24, 32), rfs=(8,))
        k = 2
        with SweepEngine(cache_dir=tmp_path, max_workers=1) as first:
            stream = first.run_iter(jobs)
            for _ in range(k):
                next(stream)
            stream.close()
        with SweepEngine(cache_dir=tmp_path) as again:
            resumed = again.run(jobs)
            disk = again.cache_stats.disk
        assert disk.network_hits == k
        assert disk.network_misses == len(jobs) - k
        assert as_dicts(resumed) == as_dicts(SweepEngine().run(jobs))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_killed_run_resumes_remainder_only(self, tmp_path):
        """SIGKILL runs no ``finally``: with ``flush_every=1`` every
        finished point is already committed, so the re-run serves
        exactly the k points the killed child completed."""
        jobs = small_jobs(sizes=(8, 16, 24, 32), rfs=(8,))
        k = 3
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: sweep k points, report, wait for the kill
            try:
                os.close(read_fd)
                disk = DiskCache(tmp_path, flush_every=1)
                engine = SweepEngine(
                    max_workers=1, cache=SimulationCache(disk=disk))
                for done, _ in enumerate(engine.run_iter(jobs), 1):
                    if done == k:
                        os.write(write_fd, b"k")
                        time.sleep(60)
            finally:
                os._exit(1)
        os.close(write_fd)
        try:
            assert os.read(read_fd, 1) == b"k"
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
        with SweepEngine(cache_dir=tmp_path) as again:
            resumed = again.run(jobs)
            disk = again.cache_stats.disk
        assert disk.network_hits == k
        assert disk.network_misses == len(jobs) - k
        assert as_dicts(resumed) == as_dicts(SweepEngine().run(jobs))

    def test_different_jobs_simulate_only_new_points(self, tmp_path):
        """Points are keyed one by one, so another sweep over the same
        directory reuses the shared points and simulates the rest."""
        with SweepEngine(cache_dir=tmp_path) as first:
            first.run(small_jobs(sizes=(16, 32), rfs=(8,)))
        jobs = small_jobs(sizes=(8, 16, 32), rfs=(8, 16))
        with SweepEngine(cache_dir=tmp_path) as engine:
            points = engine.run(jobs)
            disk = engine.cache_stats.disk
        assert disk.network_hits == 2  # 16x16/rf8 and 32x32/rf8
        assert disk.network_misses == len(jobs) - 2
        assert as_dicts(points) == as_dicts(
            SweepEngine(use_cache=False).run(jobs))

    def test_resume_in_process_mode(self, tmp_path):
        jobs = small_jobs(sizes=(16, 32), rfs=(8, 16))
        with SweepEngine(mode="process", max_workers=2,
                         cache_dir=tmp_path) as cold:
            first = cold.run(jobs)
        # The parent never simulates in process mode; the workers'
        # chunk flushes must have landed every point in the index.
        with closing(sqlite3.connect(tmp_path / DB_FILENAME)) as conn:
            (rows,) = conn.execute("SELECT COUNT(*) FROM networks").fetchone()
        assert rows == len(jobs)
        with SweepEngine(mode="process", max_workers=2,
                         cache_dir=tmp_path) as again:
            resumed = again.run(jobs)
        assert as_dicts(resumed) == as_dicts(first)

    def test_codesign_loop_resumes_from_cache_dir(self, tmp_path):
        runs = []
        for _ in range(2):
            with SweepEngine(cache_dir=tmp_path) as engine:
                result = CoDesignLoop(squeezenet_v1_1(), engine=engine).run()
                runs.append((result.narrative, engine.cache_stats))
        (cold_text, cold_stats), (warm_text, warm_stats) = runs
        assert cold_stats.disk.network_misses > 0
        assert warm_stats.disk.network_misses == 0
        assert warm_stats.lookups == 0
        assert warm_text == cold_text


class TestDesignSpace:
    def test_jobs_enumerate_cross_product_deterministically(self):
        nets = [squeezenet_v1_1(), squeezenext()]
        jobs = design_space_jobs(nets, array_sizes=(16, 32),
                                 rf_entries=(8, 16))
        assert len(jobs) == 2 * 2 * 2
        assert jobs[0].label == f"{nets[0].name}/16x16/rf8"
        assert jobs[-1].label == f"{nets[1].name}/32x32/rf16"
        assert jobs == design_space_jobs(nets, array_sizes=(16, 32),
                                         rf_entries=(8, 16))

    def test_stream_and_batch_agree(self):
        nets = [squeezenet_v1_1()]
        batch = design_space_sweep(nets, array_sizes=(16, 32),
                                   rf_entries=(8,))
        streamed = list(design_space_sweep(nets, array_sizes=(16, 32),
                                           rf_entries=(8,), stream=True))
        assert as_dicts(streamed) == as_dicts(batch)

    def test_configs_match_labels(self):
        (job,) = design_space_jobs([squeezenet_v1_1()], array_sizes=(24,),
                                   rf_entries=(16,))
        assert job.config == squeezelerator(24, 16)
