"""Tests for the multiprocessing serving backend (``worker_mode="process"``).

Covers the shared-memory rings, forked workers reusing the server's
one built runtime (no worker quantizes or compiles again; no fork, no
process mode), cross-process response bit-identity against direct plan
execution, parent-stamped deadlines expiring inside worker processes
(the monotonic-clock contract), drain-then-shutdown, worker-crash
containment (:class:`~repro.serve.WorkerCrashed`), cross-process stats
merging, one static block per worker whatever batch sizes it serves
(in both worker modes) — and the leak contract: zero orphaned ``/dev/shm`` segments
after every shutdown, including 100 randomized start/stop cycles and a
worker killed mid-batch.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

import repro.nn.compile
import repro.nn.infer
import repro.nn.quant
from repro.serve import (
    DeadlineExceeded,
    Server,
    ServerConfig,
    WorkerCrashed,
)
from repro.serve.procpool import WorkerRuntime
from repro.serve.shm import SHM_PREFIX, ShmRing
from tests.test_serve import images, make_net


def shm_segments():
    """Live serving-runtime segment names in /dev/shm."""
    try:
        return sorted(name for name in os.listdir("/dev/shm")
                      if name.startswith(SHM_PREFIX))
    except FileNotFoundError:  # platform without /dev/shm
        return []


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module must leave /dev/shm as it found it."""
    before = shm_segments()
    yield
    assert shm_segments() == before


def proc_config(**overrides):
    base = dict(workers=2, max_batch_size=4, max_wait_ms=2.0,
                queue_depth=64, worker_mode="process")
    base.update(overrides)
    return ServerConfig(**base)


class TestShmPrimitives:
    def test_ring_is_fifo_and_reuses_slots(self):
        ctx = multiprocessing.get_context()
        ring = ShmRing.create(ctx, slots=2, slot_bytes=64,
                              name=f"{SHM_PREFIX}test_fifo")
        try:
            # More messages than slots: flow control recycles them.
            for round_no in range(3):
                payloads = [f"msg-{round_no}-{i}".encode() for i in range(2)]
                for payload in payloads:
                    assert ring.put([payload], timeout=1.0)
                for payload in payloads:
                    assert ring.get(timeout=1.0) == payload
        finally:
            ring.close()

    def test_ring_concatenates_numpy_chunks(self):
        ctx = multiprocessing.get_context()
        ring = ShmRing.create(ctx, slots=1, slot_bytes=256,
                              name=f"{SHM_PREFIX}test_chunks")
        try:
            header = np.array([1, 2, 3], dtype="<i8")
            payload = np.linspace(0.0, 1.0, 8)
            assert ring.put([header, payload])
            message = ring.get(timeout=1.0)
            assert message == header.tobytes() + payload.tobytes()
        finally:
            ring.close()

    def test_ring_put_times_out_when_full_get_when_empty(self):
        ctx = multiprocessing.get_context()
        ring = ShmRing.create(ctx, slots=1, slot_bytes=16,
                              name=f"{SHM_PREFIX}test_timeo")
        try:
            assert ring.get(timeout=0.05) is None
            assert ring.put([b"x"], timeout=1.0)
            assert not ring.put([b"y"], timeout=0.05)
            assert ring.get(timeout=1.0) == b"x"
        finally:
            ring.close()

    def test_ring_rejects_oversized_message(self):
        ctx = multiprocessing.get_context()
        ring = ShmRing.create(ctx, slots=1, slot_bytes=8,
                              name=f"{SHM_PREFIX}test_big")
        try:
            with pytest.raises(ValueError, match="exceeds slot size"):
                ring.put([b"0123456789abcdef"])
        finally:
            ring.close()


class TestProcessServer:
    def test_responses_bit_identical_to_direct_plan(self):
        net = make_net()
        reference = net.inference_plan()
        xs = images(16)
        expected = reference.run(xs)
        with Server.for_network(net, proc_config()) as server:
            futures = [server.submit(x) for x in xs]
            outputs = [future.result(timeout=30) for future in futures]
        for i in range(len(xs)):
            np.testing.assert_array_equal(outputs[i], expected[i])

    def test_drain_shutdown_completes_every_accepted_request(self):
        net = make_net()
        xs = images(12)
        config = proc_config(workers=2, max_batch_size=2,
                             service_time=lambda n: 0.02)
        server = Server.for_network(net, config).start()
        futures = [server.submit(x) for x in xs]
        server.shutdown(drain=True)
        assert all(future.exception(timeout=10) is None
                   for future in futures)
        stats = server.stats()
        assert stats.accepted == len(xs)
        assert stats.completed == len(xs)
        assert stats.cancelled == 0
        assert stats.latency_ms["count"] == len(xs)

    def test_deadline_stamped_in_parent_expires_in_worker_process(self):
        # The regression this guards: deadlines are absolute monotonic
        # stamps set in the parent and compared inside a worker
        # *process* — under perf_counter (no cross-process guarantee)
        # this comparison would be meaningless.  One worker, batch size
        # one: the first request occupies the worker long enough that
        # the second — already dispatched into the worker's ring — is
        # past its deadline when the worker picks it up.
        net = make_net()
        x = images(1)[0]
        config = proc_config(workers=1, max_batch_size=1,
                             service_time=lambda n: 0.15)
        with Server.for_network(net, config) as server:
            first = server.submit(x)
            time.sleep(0.02)  # let the dispatcher push it to the worker
            second = server.submit(x, deadline_ms=40.0)
            assert first.exception(timeout=10) is None
            with pytest.raises(DeadlineExceeded):
                second.result(timeout=10)
            stats = server.stats()
        assert stats.expired >= 1
        assert stats.completed == 1

    def test_worker_exception_propagates_with_remote_traceback(self):
        net = make_net()
        config = proc_config(workers=1,
                             service_time=lambda n: 1 / 0)
        with Server.for_network(net, config) as server:
            future = server.submit(images(1)[0])
            error = future.exception(timeout=10)
        assert error is not None
        assert "ZeroDivisionError" in str(error)
        assert "worker process 0" in str(error)

    def test_worker_killed_mid_batch_fails_loudly_pool_survives(self):
        net = make_net()
        xs = images(2)
        config = proc_config(workers=2, max_batch_size=1,
                             service_time=lambda n: 0.6)
        server = Server.for_network(net, config).start()
        try:
            futures = [server.submit(x) for x in xs]
            time.sleep(0.25)  # both batches now in flight, one per worker
            server._procpool.processes[0].kill()
            outcomes = [future.exception(timeout=15) for future in futures]
            crashed = [e for e in outcomes if isinstance(e, WorkerCrashed)]
            assert len(crashed) == 1
            assert sum(1 for e in outcomes if e is None) == 1
            # The surviving worker keeps serving new requests.
            follow_up = server.submit(xs[0])
            assert follow_up.exception(timeout=15) is None
            stats = server.stats()
            assert stats.failed == 1
            assert stats.completed == 2
        finally:
            server.shutdown()
        # The autouse fixture asserts the kill leaked no segments.

    def test_stats_merge_across_process_boundary(self):
        net = make_net()
        xs = images(20)
        config = proc_config(workers=2, max_batch_size=4, max_wait_ms=5.0)
        with Server.for_network(net, config) as server:
            futures = [server.submit(x) for x in xs]
            for future in futures:
                future.result(timeout=30)
        stats = server.stats()
        assert stats.completed == len(xs)
        assert sum(size * count for size, count
                   in stats.batch_size_hist.items()) == len(xs)
        assert stats.latency_ms["count"] == len(xs)
        assert stats.latency_ms["p99"] >= stats.latency_ms["p50"] > 0
        block = server._runtime.executor.static_arena_bytes(4)
        assert stats.arena == {"held_bytes": 2 * block}
        assert stats.worker_mode == "process"

    def test_process_mode_requires_input_shape(self):
        net = make_net()
        with pytest.raises(ValueError, match="input_shape"):
            Server(net.inference_plan(), proc_config())

    def test_randomized_start_stop_cycles_leak_nothing(self):
        # The acceptance bar: 100 start/stop cycles with randomized
        # load and drain mode, zero leaked segments, and every accepted
        # request accounted for (completed/expired/cancelled/failed).
        net = make_net()
        x = images(1)[0]
        rng = np.random.default_rng(11)
        config = proc_config(workers=1, max_batch_size=4, max_wait_ms=0.5)
        for cycle in range(100):
            server = Server.for_network(net, config).start()
            futures = [server.submit(x)
                       for _ in range(int(rng.integers(0, 5)))]
            drain = bool(rng.integers(0, 2))
            server.shutdown(drain=drain)
            for future in futures:
                future.exception(timeout=10)  # resolved, never dropped
            stats = server.stats()
            assert stats.accepted == len(futures)
            assert (stats.completed + stats.expired + stats.cancelled
                    + stats.failed) == stats.accepted
            assert shm_segments() == [], f"leak after cycle {cycle}"


class TestForkedRuntime:
    """Process workers fork the server's one built runtime: the parent
    quantizes and compiles once, and each child clones what it
    inherited."""

    def test_workers_reuse_the_parents_lowering(self, monkeypatch):
        net = make_net()
        # A long batching window makes the batch sizes deterministic:
        # a lone request rides alone, a burst fills max_batch_size.
        config = proc_config(workers=2, max_batch_size=4, max_wait_ms=400.0,
                             quantized_bits=16)
        server = Server.for_network(net, config)

        def refuse(*args, **kwargs):
            raise AssertionError("a worker lowered the plan again")

        # Forked children inherit the patch: a worker that quantized or
        # compiled again would fail its warm-up and every batch.
        monkeypatch.setattr(repro.nn.quant, "quantize_plan", refuse)
        monkeypatch.setattr(repro.nn.compile, "_lower", refuse)
        xs = images(config.max_batch_size)
        with server:
            single = server.infer(xs[0], timeout=60)
            futures = [server.submit(x) for x in xs]
            batched = [future.result(timeout=60) for future in futures]
            stats = server.stats()
        assert stats.batch_size_hist == {1: 1, config.max_batch_size: 1}
        parent = server._runtime.executor
        np.testing.assert_array_equal(single, parent.run(xs[:1])[0])
        expected = parent.run(xs)
        for i, result in enumerate(batched):
            np.testing.assert_array_equal(result, expected[i])

    def test_start_runs_no_interpreted_inference(self, monkeypatch):
        """The response ring's output shape comes from the compiled
        program, so starting a process-mode server interprets nothing."""
        net = make_net()
        config = proc_config(workers=1)
        server = Server.for_network(net, config)

        def refuse(*args, **kwargs):
            raise AssertionError("the interpreted plan ran")

        monkeypatch.setattr(repro.nn.infer.InferencePlan, "run", refuse)
        x = images(1)
        with server:
            result = server.infer(x[0], timeout=60)
        np.testing.assert_array_equal(
            result, server._runtime.executor.run(x)[0])

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_server_builds_exactly_one_runtime(self, monkeypatch, mode):
        built = []
        original = WorkerRuntime.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(WorkerRuntime, "__init__", counting)
        config = proc_config(worker_mode=mode)
        with Server.for_network(make_net(), config) as server:
            server.infer(images(1)[0], timeout=60)
        assert len(built) == 1

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_one_block_per_worker_whatever_the_batch_size(self, mode):
        # A long batching window makes each burst exactly one batch, so
        # the worker meets every batch size from 1 to max_batch_size.
        net = make_net()
        config = proc_config(worker_mode=mode, workers=1, max_batch_size=4,
                             max_wait_ms=200.0)
        xs = images(config.max_batch_size)
        with Server.for_network(net, config) as server:
            for size in range(1, config.max_batch_size + 1):
                futures = [server.submit(x) for x in xs[:size]]
                for future in futures:
                    future.result(timeout=60)
            stats = server.stats()
        assert stats.batch_size_hist == {1: 1, 2: 1, 3: 1, 4: 1}
        executor = server._runtime.executor
        assert stats.arena == {
            "held_bytes": executor.static_arena_bytes(config.max_batch_size)}

    def test_process_mode_without_fork_fails_clearly(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        with pytest.raises(ValueError, match="worker_mode='thread'"):
            ServerConfig(worker_mode="process")
        assert ServerConfig(worker_mode="thread").worker_mode == "thread"


class TestCompiledProcessMode:
    """Process workers: each forked worker runs a clone of the parent's
    compiled runtime; responses stay bit-identical and shutdown leaks
    nothing (the autouse fixture checks /dev/shm)."""

    def test_compiled_responses_bit_identical_to_direct_plan(self):
        net = make_net()
        reference_plan = net.inference_plan()
        xs = images(16)
        with Server.for_network(net, proc_config()) as server:
            futures = [server.submit(x) for x in xs]
            results = [f.result(timeout=60) for f in futures]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(
                result, reference_plan.run(xs[i:i + 1])[0])

    def test_compiled_matches_thread_mode_bitwise(self):
        net = make_net()
        x = images(1)[0]
        with Server.for_network(net, proc_config(workers=1)) as server:
            from_process = server.infer(x, timeout=60)
        thread_config = ServerConfig(workers=1, max_batch_size=4)
        with Server.for_network(net, thread_config) as server:
            from_thread = server.infer(x, timeout=60)
        np.testing.assert_array_equal(from_process, from_thread)

    def test_compiled_quantized_rings_carry_levels(self):
        # quantized_bits: rings carry int16 levels into each worker's
        # compiled integer program (run_quantized).
        from repro.nn import compile_plan
        net = make_net()
        direct = compile_plan(net.inference_plan().quantize(16), (3, 8, 8))
        xs = images(8)
        config = proc_config(workers=1, quantized_bits=16)
        with Server.for_network(net, config) as server:
            ring = server._procpool._req_rings[0]
            assert ring.handle.payload_dtype == "<i2"
            results = [f.result(timeout=60)
                       for f in [server.submit(x) for x in xs]]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result, direct.run(xs[i:i + 1])[0])

    def test_compiled_warmup_disabled_still_serves(self):
        net = make_net()
        config = proc_config(workers=1, warmup=False)
        with Server.for_network(net, config) as server:
            out = server.infer(images(1)[0], timeout=60)
        np.testing.assert_array_equal(
            out, net.inference_plan().run(images(1)[:1])[0])
