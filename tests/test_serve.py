"""Tests for the serving runtime (`repro.serve`).

Covers response correctness (bit-identical to direct plan execution),
admission control (`QueueFull`), deadline expiry, graceful drain-then-
shutdown (including 100 randomized start/stop cycles with zero dropped
requests), stats aggregation (including the workers' static blocks),
both load-generator loops, the simulator-paced service-time model, and
the `repro-serve` CLI.
"""

import threading

import numpy as np
import pytest

from repro import obs
from repro.graph import NetworkBuilder, TensorShape
from repro.nn import GraphNetwork
from repro.serve import (
    DeadlineExceeded,
    LoadGenerator,
    QueueFull,
    Server,
    ServerClosed,
    ServerConfig,
    accelerator_service_time,
)
from repro.serve.cli import build_spec, main

RNG = np.random.default_rng(7)


def tiny_spec():
    """A small but structurally rich model: conv+BN+ReLU chains, a
    concat fan-in, pooling, dense head and softmax (a module step)."""
    b = NetworkBuilder("tiny-serve", TensorShape(3, 8, 8))
    trunk = b.conv("trunk", 6, kernel_size=3, padding=1)
    left = b.conv("left", 4, kernel_size=1, after=trunk)
    right = b.conv("right", 4, kernel_size=3, padding=1, after=trunk)
    b.concat("cat", [left, right])
    b.pool("pool", kernel_size=2, stride=2)
    b.global_avg_pool("gap")
    b.dense("fc", 5, activation="identity")
    b.softmax("prob")
    return b.build()


def make_net(seed: int = 3) -> GraphNetwork:
    net = GraphNetwork(tiny_spec(), rng=np.random.default_rng(seed),
                       batch_norm=True)
    stats_rng = np.random.default_rng(seed + 1)
    for bn in net._bn.values():
        bn.running_mean = stats_rng.normal(scale=0.3, size=bn.channels)
        bn.running_var = stats_rng.uniform(0.5, 2.0, size=bn.channels)
    return net.eval()


def images(n: int, seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 3, 8, 8))


class TestResponseCorrectness:
    def test_batched_plan_slices_match_single_image_runs(self):
        # The foundation of the serving guarantee: running a stacked
        # batch through the plan yields, per image, exactly the bytes
        # a single-image run yields.
        net = make_net()
        plan = net.inference_plan()
        xs = images(6)
        batched = plan.run(xs)
        for i in range(len(xs)):
            single = plan.run(xs[i:i + 1])
            np.testing.assert_array_equal(batched[i], single[0])

    def test_responses_bit_identical_to_direct_plan(self):
        net = make_net()
        reference_plan = net.inference_plan()
        xs = images(32)
        config = ServerConfig(workers=2, max_batch_size=8, max_wait_ms=5.0,
                              queue_depth=64)
        with Server.for_network(net, config) as server:
            futures = [server.submit(x) for x in xs]
            results = [f.result(timeout=30) for f in futures]
        for i, result in enumerate(results):
            direct = reference_plan.run(xs[i:i + 1])[0]
            np.testing.assert_array_equal(result, direct)

    def test_batches_actually_form(self):
        net = make_net()
        config = ServerConfig(workers=1, max_batch_size=8, max_wait_ms=50.0,
                              queue_depth=64)
        with Server.for_network(net, config) as server:
            futures = [server.submit(x) for x in images(8)]
            for f in futures:
                f.result(timeout=30)
            stats = server.stats()
        assert stats.completed == 8
        assert stats.batches < 8  # coalescing happened
        assert max(stats.batch_size_hist) > 1

    def test_submit_validates_shape(self):
        net = make_net()
        with Server.for_network(net) as server:
            with pytest.raises(ValueError):
                server.submit(np.zeros((3, 4, 4)))     # wrong H/W
            with pytest.raises(ValueError):
                server.submit(np.zeros((1, 3, 8, 8)))  # batched payload

    def test_infer_sync_wrapper(self):
        net = make_net()
        x = images(1)[0]
        with Server.for_network(net) as server:
            out = server.infer(x, timeout=30)
        np.testing.assert_array_equal(
            out, net.inference_plan().run(x[None])[0])


class TestAdmissionControl:
    def test_queue_full_rejects_instead_of_growing(self):
        net = make_net()
        config = ServerConfig(workers=1, max_batch_size=1, max_wait_ms=0.0,
                              queue_depth=2,
                              service_time=lambda n: 0.05 * n)
        with Server.for_network(net, config) as server:
            futures = []
            rejected = 0
            for x in images(30):
                try:
                    futures.append(server.submit(x))
                except QueueFull:
                    rejected += 1
            assert rejected > 0
            for f in futures:
                f.result(timeout=30)  # everything accepted completes
            stats = server.stats()
        assert stats.rejected_queue_full == rejected
        assert stats.accepted == len(futures)
        assert stats.completed == len(futures)

    def test_submit_before_start_and_after_shutdown_raises(self):
        net = make_net()
        server = Server.for_network(net)
        with pytest.raises(ServerClosed):
            server.submit(images(1)[0])
        server.start()
        server.submit(images(1)[0]).result(timeout=30)
        server.shutdown()
        with pytest.raises(ServerClosed):
            server.submit(images(1)[0])

    def test_start_after_shutdown_raises(self):
        server = Server.for_network(make_net())
        server.start()
        server.shutdown()
        with pytest.raises(ServerClosed):
            server.start()


class TestDeadlines:
    def test_deadline_expires_queued_work(self):
        net = make_net()
        # One slow worker busy with a deadline-free head request;
        # everything queued behind it waits well past a 1ms deadline.
        config = ServerConfig(workers=1, max_batch_size=1, max_wait_ms=0.0,
                              queue_depth=64,
                              service_time=lambda n: 0.05 * n)
        xs = images(10)
        with Server.for_network(net, config) as server:
            futures = [server.submit(xs[0])]
            futures += [server.submit(x, deadline_ms=1.0) for x in xs[1:]]
            outcomes = [f.exception(timeout=30) for f in futures]
            stats = server.stats()
        assert outcomes[0] is None
        assert all(isinstance(e, DeadlineExceeded) for e in outcomes[1:])
        assert stats.expired == 9
        assert stats.completed == 1

    def test_default_deadline_from_config(self):
        net = make_net()
        config = ServerConfig(workers=1, max_batch_size=1, max_wait_ms=0.0,
                              queue_depth=64, default_deadline_ms=1.0,
                              service_time=lambda n: 0.05 * n)
        with Server.for_network(net, config) as server:
            futures = [server.submit(x) for x in images(10)]
            outcomes = [f.exception(timeout=30) for f in futures]
        assert any(isinstance(e, DeadlineExceeded) for e in outcomes)

    def test_no_deadline_means_no_expiry(self):
        net = make_net()
        config = ServerConfig(workers=1, max_batch_size=4, max_wait_ms=0.0,
                              queue_depth=64,
                              service_time=lambda n: 0.01 * n)
        with Server.for_network(net, config) as server:
            futures = [server.submit(x) for x in images(12)]
            for f in futures:
                f.result(timeout=30)
            assert server.stats().expired == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(workers=0)
        with pytest.raises(ValueError):
            ServerConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            ServerConfig(queue_depth=0)
        with pytest.raises(ValueError):
            ServerConfig(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            ServerConfig(default_deadline_ms=0.0)
        with pytest.raises(ValueError):
            ServerConfig(worker_mode="coroutine")
        with pytest.raises(ValueError, match="compiled"):
            ServerConfig(compiled=False)
        assert ServerConfig(compiled=True).compiled


class TestShutdown:
    def test_drain_completes_everything_queued(self):
        net = make_net()
        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=1.0,
                              queue_depth=64,
                              service_time=lambda n: 0.01 * n)
        server = Server.for_network(net, config).start()
        futures = [server.submit(x) for x in images(16)]
        server.shutdown(drain=True)
        assert all(f.done() for f in futures)
        assert all(f.exception() is None for f in futures)
        stats = server.stats()
        assert stats.completed == 16
        assert stats.cancelled == 0

    def test_nondrain_cancels_queued_loudly(self):
        net = make_net()
        config = ServerConfig(workers=1, max_batch_size=1, max_wait_ms=0.0,
                              queue_depth=64,
                              service_time=lambda n: 0.05 * n)
        server = Server.for_network(net, config).start()
        futures = [server.submit(x) for x in images(12)]
        server.shutdown(drain=False)
        assert all(f.done() for f in futures)
        errors = [f.exception() for f in futures]
        cancelled = [e for e in errors if isinstance(e, ServerClosed)]
        assert cancelled, "queued work should be cancelled"
        stats = server.stats()
        assert stats.cancelled == len(cancelled)
        assert stats.completed == len([e for e in errors if e is None])

    def test_shutdown_idempotent_and_reentrant(self):
        server = Server.for_network(make_net()).start()
        server.shutdown()
        server.shutdown()  # must not raise or hang

    def test_shutdown_without_start(self):
        server = Server.for_network(make_net())
        server.shutdown()  # no workers ever spawned; must not hang

    def test_100_randomized_start_stop_cycles_drop_nothing(self):
        # The acceptance criterion: across randomized lifecycles, every
        # accepted request is completed — with a value or a loud error,
        # never silently dropped.
        net = make_net()
        plan = net.inference_plan()
        rng = np.random.default_rng(42)
        pool = images(4)
        for cycle in range(100):
            config = ServerConfig(
                workers=int(rng.integers(1, 4)),
                max_batch_size=int(rng.integers(1, 5)),
                max_wait_ms=float(rng.uniform(0.0, 2.0)),
                queue_depth=int(rng.integers(1, 16)),
                service_time=(
                    (lambda n: 0.002 * n)
                    if rng.random() < 0.5 else None),
            )
            server = Server(plan, config, input_shape=(3, 8, 8)).start()
            futures = []
            for _ in range(int(rng.integers(0, 9))):
                deadline = (float(rng.uniform(0.5, 5.0))
                            if rng.random() < 0.3 else None)
                try:
                    futures.append(server.submit(
                        pool[int(rng.integers(0, len(pool)))],
                        deadline_ms=deadline))
                except QueueFull:
                    pass
            server.shutdown(drain=bool(rng.random() < 0.7))
            assert all(f.done() for f in futures), f"cycle {cycle}"
            stats = server.stats()
            accounted = (stats.completed + stats.cancelled + stats.expired
                         + stats.failed)
            assert accounted == stats.accepted == len(futures), \
                f"cycle {cycle}: {stats}"


class TestStats:
    def _run(self, n=20):
        net = make_net()
        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=2.0,
                              queue_depth=64)
        with Server.for_network(net, config) as server:
            futures = [server.submit(x) for x in images(n)]
            for f in futures:
                f.result(timeout=30)
            return server.stats()

    def test_counter_consistency(self):
        stats = self._run()
        assert stats.accepted == stats.completed == 20
        assert sum(size * count for size, count in
                   stats.batch_size_hist.items()) == stats.completed
        assert sum(stats.batch_size_hist.values()) == stats.batches
        assert stats.latency_ms["count"] == stats.completed
        assert 0 < stats.latency_ms["p50"] <= stats.latency_ms["p99"]
        assert stats.throughput_rps > 0
        assert stats.mean_batch_size >= 1.0

    def test_arena_counters_aggregate_across_worker_replicas(self):
        # Each worker binds one static block, sized for its largest
        # compiled batch; the merge sums the workers' blocks.
        net = make_net()
        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=2.0,
                              queue_depth=64)
        with Server.for_network(net, config) as server:
            for f in [server.submit(x) for x in images(20)]:
                f.result(timeout=30)
        block = server._runtime.executor.static_arena_bytes(4)
        assert server.stats().arena == {"held_bytes": 2 * block}

    def test_as_dict_is_json_ready(self):
        import json
        stats = self._run()
        parsed = json.loads(json.dumps(stats.as_dict()))
        assert parsed["completed"] == 20

    def test_obs_counters_and_spans(self):
        net = make_net()
        config = ServerConfig(workers=1, max_batch_size=4, max_wait_ms=2.0)
        with obs.tracing() as tracer:
            with Server.for_network(net, config) as server:
                futures = [server.submit(x) for x in images(8)]
                for f in futures:
                    f.result(timeout=30)
                stats = server.stats()
        counters = tracer.counters
        assert counters["serve.accepted"] == stats.accepted == 8
        assert counters["serve.completed"] == stats.completed == 8
        batch_spans = [s for s in tracer.spans if s.name == "serve.batch"]
        assert len(batch_spans) == stats.batches
        assert sum(s.meta["size"] for s in batch_spans) == 8


class TestStatsRace:
    def test_stats_reads_no_worker_arena_from_caller(self, monkeypatch):
        """A worker's static block is thread-local: only the worker's
        own thread may read its size, even while ``stats()`` is
        polled."""
        from repro.nn.compile import CompiledPlan

        readers = set()
        guard = threading.Lock()
        block_bytes = CompiledPlan.block_bytes

        def record(executor):
            with guard:
                readers.add(threading.current_thread().name)
            return block_bytes(executor)

        monkeypatch.setattr(CompiledPlan, "block_bytes", record)
        net = make_net()
        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=1.0,
                              queue_depth=64)
        xs = images(4)
        polls = 0
        with Server.for_network(net, config, name="race") as server:
            for size in (1, 3, 2, 4, 1, 4, 3, 2):
                futures = [server.submit(x) for x in xs[:size]]
                while not all(f.done() for f in futures):
                    server.stats()
                    polls += 1
                for f in futures:
                    f.result(timeout=30)
            stats = server.stats()
        assert stats.completed == 20
        assert polls > 0
        assert readers, "no worker published its block"
        assert all(n.startswith("race-worker-") for n in readers), readers


class TestLoadGenerator:
    def test_closed_loop_accounts_for_every_request(self):
        net = make_net()
        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=1.0,
                              queue_depth=8)
        with Server.for_network(net, config) as server:
            report = LoadGenerator(server, images(4)).run_closed(
                clients=3, requests=15)
        assert report.mode == "closed"
        assert report.sent == 15
        assert (report.completed + report.rejected + report.expired
                + report.failed) == 15
        assert report.completed > 0
        assert report.achieved_rps > 0
        assert report.latency_ms["count"] == report.completed

    def test_open_loop_fixed_rate(self):
        net = make_net()
        config = ServerConfig(workers=2, max_batch_size=8, max_wait_ms=1.0,
                              queue_depth=32)
        with Server.for_network(net, config) as server:
            report = LoadGenerator(server, images(4)).run_open(
                rps=200.0, duration_s=0.2)
        assert report.mode == "open"
        assert report.offered_rps == 200.0
        assert report.sent == 40
        assert (report.completed + report.rejected + report.expired
                + report.failed) == 40

    def test_open_loop_overload_sheds_with_queue_full(self):
        net = make_net()
        # Capacity ~20 rps (one worker, 50ms/image, batch 1); offer far
        # more against a tiny queue: admission control must shed.
        config = ServerConfig(workers=1, max_batch_size=1, max_wait_ms=0.0,
                              queue_depth=2,
                              service_time=lambda n: 0.05 * n)
        with Server.for_network(net, config) as server:
            report = LoadGenerator(server, images(2)).run_open(
                rps=300.0, duration_s=0.3)
        assert report.rejected > 0
        assert report.completed > 0

    def test_open_loop_poisson_is_seeded_and_bursty(self):
        net = make_net()
        config = ServerConfig(workers=2, max_batch_size=8, max_wait_ms=1.0,
                              queue_depth=64)
        with Server.for_network(net, config) as server:
            gen = LoadGenerator(server, images(4))
            first = gen.run_open(rps=300.0, duration_s=0.2,
                                 arrivals="poisson", seed=42)
            second = gen.run_open(rps=300.0, duration_s=0.2,
                                  arrivals="poisson", seed=42)
            other = gen.run_open(rps=300.0, duration_s=0.2,
                                 arrivals="poisson", seed=43)
        # Same seed, same schedule (same number of arrivals fit the
        # window); a different seed draws its own.
        assert first.sent == second.sent
        assert first.sent > 0
        for report in (first, second, other):
            assert (report.completed + report.rejected + report.expired
                    + report.failed) == report.sent

    def test_open_loop_rejects_unknown_arrivals(self):
        net = make_net()
        with Server.for_network(net) as server:
            gen = LoadGenerator(server, images(2))
            with pytest.raises(ValueError, match="arrivals"):
                gen.run_open(rps=10.0, duration_s=0.1, arrivals="bursty")

    def test_callable_input_source(self):
        net = make_net()
        calls = []

        def source(i):
            calls.append(i)
            return images(1, seed=i)[0]

        with Server.for_network(net) as server:
            report = LoadGenerator(server, source).run_closed(
                clients=1, requests=3)
        assert report.completed == 3
        assert calls == [0, 1, 2]

    def test_loadgen_validation(self):
        net = make_net()
        with Server.for_network(net) as server:
            gen = LoadGenerator(server, images(2))
            with pytest.raises(ValueError):
                gen.run_closed(clients=0, requests=1)
            with pytest.raises(ValueError):
                gen.run_closed(clients=1)  # no bound at all
            with pytest.raises(ValueError):
                gen.run_open(rps=0.0, duration_s=1.0)
            with pytest.raises(ValueError):
                LoadGenerator(server, [])


class TestSimulatedServiceTime:
    def test_model_shape_and_monotonicity(self):
        service = accelerator_service_time(tiny_spec())
        assert service.per_image_s > 0
        assert service(4) == pytest.approx(4 * service.per_image_s)
        assert service.report.network == "tiny-serve"

    def test_time_scale_compresses(self):
        fast = accelerator_service_time(tiny_spec(), time_scale=0.1)
        slow = accelerator_service_time(tiny_spec(), time_scale=1.0)
        assert fast.per_image_s == pytest.approx(0.1 * slow.per_image_s)
        with pytest.raises(ValueError):
            accelerator_service_time(tiny_spec(), time_scale=0.0)

    def test_server_paced_by_simulated_time(self):
        import time
        net = make_net()
        # Pace to 20ms/image: 6 sequential batch-1 requests through one
        # worker must take >= ~120ms even though compute is ~1ms.
        config = ServerConfig(workers=1, max_batch_size=1, max_wait_ms=0.0,
                              service_time=lambda n: 0.02 * n)
        with Server.for_network(net, config) as server:
            start = time.perf_counter()
            futures = [server.submit(x) for x in images(6)]
            for f in futures:
                f.result(timeout=30)
            elapsed = time.perf_counter() - start
        stats = server.stats()
        assert elapsed >= 0.1  # six paced batches can't finish sooner
        assert stats.latency_ms["max"] >= 20.0  # pacing is visible


class TestConcurrentSubmitters:
    def test_many_threads_submitting_one_server(self):
        net = make_net()
        reference_plan = net.inference_plan()
        xs = images(8)
        config = ServerConfig(workers=3, max_batch_size=4, max_wait_ms=1.0,
                              queue_depth=256)
        results = {}
        errors = []

        def client(tid):
            try:
                pairs = []
                for k in range(6):
                    x = xs[(tid + k) % len(xs)]
                    pairs.append((x, server.infer(x, timeout=30)))
                results[tid] = pairs
            except Exception as error:  # pragma: no cover
                errors.append(error)

        with Server.for_network(net, config) as server:
            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        for tid, pairs in results.items():
            for x, result in pairs:
                np.testing.assert_array_equal(
                    result, reference_plan.run(x[None])[0])


class TestCLI:
    def test_unknown_model_is_an_error(self, capsys):
        assert main(["--model", "nope"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_invalid_setting_is_a_config_error(self, capsys):
        assert main(["--model", "tiny_darknet", "--workers", "0"]) == 2
        captured = capsys.readouterr()
        assert "config error: workers must be >= 1" in captured.err
        assert "Traceback" not in captured.err
        # Rejected before the network is built.
        assert "built " not in captured.err

    def test_build_spec_resolves_slugs_and_zoo_names(self):
        assert build_spec("sqnxt_23_v5").name == "1.0-SqNxt-23-v5"
        assert build_spec("SqueezeNext").name == "1.0-SqNxt-23"
        assert build_spec("squeezenet_v1_1").name.lower().startswith(
            "squeezenet")

    def test_cli_end_to_end_json(self, tmp_path, capsys):
        import json
        out = tmp_path / "serve.json"
        code = main(["--model", "tiny_darknet", "--clients", "2",
                     "--requests", "4", "--duration", "30",
                     "--workers", "1", "--max-batch-size", "2",
                     "--json", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "repro-serve: Tiny Darknet" in captured.out
        document = json.loads(out.read_text())
        assert document["load"]["sent"] == 4
        assert document["server"]["accepted"] == 4
        assert document["load"]["completed"] == 4

    def test_cli_process_mode_open_loop(self, tmp_path, capsys):
        import json
        out = tmp_path / "serve_proc.json"
        code = main(["--model", "tiny_darknet", "--rps", "30",
                     "--duration", "0.2", "--workers", "1",
                     "--worker-mode", "process", "--max-batch-size", "2",
                     "--arrivals", "poisson", "--seed", "3",
                     "--json", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["server"]["worker_mode"] == "process"
        assert document["load"]["sent"] > 0
        assert (document["load"]["completed"]
                + document["load"]["rejected"]
                + document["load"]["expired"]
                + document["load"]["failed"]) == document["load"]["sent"]


class TestCompiledServing:
    """Workers run the AOT-compiled executor, one static block each."""

    def _wait_warmed(self, server, timeout=5.0):
        import time
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            # A worker publishes its first snapshot right after warm-up.
            if all(w.runtime.warmed and w.snapshot is not None
                   for w in server._workers):
                return
            time.sleep(0.005)
        raise AssertionError("workers never warmed")

    def test_compiled_responses_bit_identical_to_interpreted(self):
        net = make_net()
        reference_plan = net.inference_plan()
        xs = images(24)
        config = ServerConfig(workers=2, max_batch_size=8, max_wait_ms=5.0)
        with Server.for_network(net, config) as server:
            futures = [server.submit(x) for x in xs]
            results = [f.result(timeout=30) for f in futures]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(
                result, reference_plan.run(xs[i:i + 1])[0])

    def test_compiled_quantized_responses_bit_identical(self):
        # The two knobs compose: workers quantize the plan, then run
        # the compiled integer program over it.
        from repro.nn import compile_plan
        net = make_net()
        direct = compile_plan(net.inference_plan().quantize(16), (3, 8, 8))
        xs = images(12)
        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=5.0,
                              quantized_bits=16)
        with Server.for_network(net, config) as server:
            executor = server._workers[0].runtime.executor
            assert executor.program(1).bits == 16
            results = [f.result(timeout=30)
                       for f in [server.submit(x) for x in xs]]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result, direct.run(xs[i:i + 1])[0])

    def test_warmup_binds_programs_before_first_request(self):
        net = make_net()
        config = ServerConfig(workers=2, max_batch_size=4)
        with Server.for_network(net, config) as server:
            self._wait_warmed(server)
            # The warm-up dummy batch already bound every worker's
            # batch-1 program (the workers share one executor, so
            # replicas accumulate on the one program object) into a
            # block sized for the largest compiled batch.
            executor = server._workers[0].runtime.executor
            assert executor.program(1).bound_replicas >= 2
            out = server.infer(images(1)[0], timeout=30)
        np.testing.assert_array_equal(
            out, net.inference_plan().run(images(1)[:1])[0])

    def test_warmup_binds_one_block_per_worker(self):
        net = make_net()
        config = ServerConfig(workers=2, max_batch_size=4)
        with Server.for_network(net, config) as server:
            self._wait_warmed(server)
            # Each worker's block is sized for the largest compiled
            # batch before the first request, which then binds nothing.
            executor = server._workers[0].runtime.executor
            block = executor.static_arena_bytes(4)
            assert server.stats().arena["held_bytes"] == 2 * block
            server.infer(images(1)[0], timeout=30)
            assert server.stats().arena["held_bytes"] == 2 * block

    def test_workers_share_one_executor(self):
        # Workers hold nothing private in the executor: one compiled
        # plan serves them all, each thread in its own static block.
        config = ServerConfig(workers=3)
        with Server.for_network(make_net(), config) as server:
            executors = {id(w.runtime.executor) for w in server._workers}
            assert executors == {id(server._runtime.executor)}

    def test_warmup_disabled_leaves_workers_cold(self):
        import time
        net = make_net()
        config = ServerConfig(workers=1, warmup=False)
        with Server.for_network(net, config) as server:
            time.sleep(0.05)
            assert not any(w.runtime.warmed for w in server._workers)
            assert server.stats().arena["held_bytes"] == 0
            out = server.infer(images(1)[0], timeout=30)
        np.testing.assert_array_equal(
            out, net.inference_plan().run(images(1)[:1])[0])

    def test_compiled_without_input_shape_raises(self):
        net = make_net()
        with pytest.raises(ValueError):
            Server(net.inference_plan(), ServerConfig(workers=1))

    def test_cli_reports_static_blocks(self, tmp_path, capsys):
        import json
        out = tmp_path / "serve_blocks.json"
        code = main(["--model", "tiny_darknet", "--clients", "2",
                     "--requests", "4", "--duration", "30",
                     "--workers", "1", "--max-batch-size", "2",
                     "--json", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        document = json.loads(out.read_text())
        assert document["load"]["completed"] == 4
        # The one worker's static block is in the stats and the summary.
        assert document["server"]["arena"]["held_bytes"] > 0
        assert "static blocks held" in captured.out

    def test_odd_batch_sizes_autocompile_not_fallback(self):
        net = make_net()
        config = ServerConfig(workers=1, max_batch_size=8, max_wait_ms=50.0)
        xs = images(3)
        with Server.for_network(net, config) as server:
            self._wait_warmed(server)
            futures = [server.submit(x) for x in xs]
            for f in futures:
                f.result(timeout=30)
            worker = server._workers[0].runtime
            assert 3 in worker.executor.batch_sizes

    def test_p99_first_batch_regression(self):
        """Restart the server repeatedly: the first request must not be
        a cold-start outlier vs steady state (warm-up absorbs the
        compile/bind cost before the window opens)."""
        import statistics
        import time
        net = make_net()
        x = images(1)[0]
        firsts, steady = [], []
        for _ in range(7):
            config = ServerConfig(workers=1, max_batch_size=2,
                                  max_wait_ms=0.5)
            with Server.for_network(net, config) as server:
                self._wait_warmed(server)
                began = time.perf_counter()
                server.infer(x, timeout=30)
                firsts.append(time.perf_counter() - began)
                for _ in range(8):
                    began = time.perf_counter()
                    server.infer(x, timeout=30)
                    steady.append(time.perf_counter() - began)
        p99_first = max(firsts)  # max of 7 ≥ the empirical p99
        median_steady = statistics.median(steady)
        # Generous bound: catches a reintroduced compile/bind on the
        # first request (tens of ms) without flaking on scheduler noise.
        assert p99_first <= median_steady * 20 + 0.05, (
            f"first-batch p99 {p99_first * 1e3:.2f}ms vs steady median "
            f"{median_steady * 1e3:.2f}ms")
