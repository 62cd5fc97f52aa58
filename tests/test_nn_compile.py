"""Tests for the AOT plan compiler (:mod:`repro.nn.compile`).

Covers the static first-fit allocator, zoo-wide equivalence of the
compiled executor against the interpreted plan (≤1e-12) and the looped
``forward_reference`` oracle at batch 1 and 4, kernel-strategy
selection (pointwise / dw-gemm / write-through joins), batch
specialization (unseen batch sizes compile on first use, a wrong input
shape raises through both entry points), one static block per thread
shared by every batch program in both numeric domains, per-step spans
for float and integer programs, and the no-arena-traffic hot-path
guarantee.
"""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.graph import NetworkBuilder, TensorShape
from repro.models import MODEL_FACTORIES
from repro.nn import (
    CompiledPlan,
    GraphNetwork,
    compile_plan,
    quantize_batch,
)
from repro.nn.compile import _StaticAllocator, ALIGN
from tests.test_nn_infer import (
    _randomize_running_stats,
    branchy_spec,
    looped_reference_forward,
)

RNG = np.random.default_rng(77)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    assert not obs.is_enabled()
    yield
    obs.disable()


def _input_shape(net: GraphNetwork):
    shape = net.spec.input_shape
    return (shape.channels, shape.height, shape.width)


def _branchy_net(seed: int = 1) -> GraphNetwork:
    net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(seed),
                       batch_norm=True)
    _randomize_running_stats(net)
    return net.eval()


class TestStaticAllocator:
    def test_offsets_are_aligned_and_first_fit(self):
        alloc = _StaticAllocator()
        a = alloc.alloc(100)
        b = alloc.alloc(ALIGN)
        assert a == 0
        assert b % ALIGN == 0
        assert b >= 128  # 100 rounds up to two cachelines
        alloc.free(a, 100)
        # First fit: the freed head hole is reused before growing.
        assert alloc.alloc(64) == 0

    def test_free_coalesces_and_shrinks_high_water(self):
        alloc = _StaticAllocator()
        a = alloc.alloc(64)
        b = alloc.alloc(64)
        c = alloc.alloc(64)
        assert alloc.high_water == 192
        alloc.free(b, 64)
        assert alloc.high_water == 192  # middle hole: no shrink
        alloc.free(c, 64)
        # b+c coalesce and touch the top: block shrinks to just a.
        assert alloc.high_water == 64
        alloc.free(a, 64)
        assert alloc.high_water == 0

    def test_zero_byte_requests_still_get_a_slot(self):
        alloc = _StaticAllocator()
        a = alloc.alloc(0)
        b = alloc.alloc(0)
        assert a != b


@pytest.fixture(scope="module", params=sorted(MODEL_FACTORIES))
def zoo_network(request):
    net = GraphNetwork(MODEL_FACTORIES[request.param](),
                       rng=np.random.default_rng(0), batch_norm=True)
    _randomize_running_stats(net)
    return net.eval()


class TestZooCompiledEquivalence:
    """The issue's acceptance bar: compiled output within 1e-12 of the
    interpreted plan and matching the preserved looped oracle, on every
    zoo model at batch 1 and 4."""

    @pytest.mark.parametrize("batch", [1, 4])
    def test_compiled_matches_plan_and_oracle(self, zoo_network, batch):
        net = zoo_network
        x = np.random.default_rng(batch).normal(
            size=(batch,) + _input_shape(net))
        plan = net.inference_plan()
        interpreted = plan.run(x).copy()
        compiled = compile_plan(plan, _input_shape(net),
                                batch_sizes=(batch,))
        out = compiled.run(x)
        assert np.max(np.abs(out - interpreted)) <= 1e-12
        oracle = looped_reference_forward(net, x)
        np.testing.assert_allclose(out, oracle, atol=1e-6)
        assert compiled.batch_sizes == (batch,)

    def test_output_shape_matches_plan(self, zoo_network):
        """``CompiledProgram.output_shape`` is the interpreted plan's
        per-sample output shape, float and int16, at batch 1 and 3."""
        shape = _input_shape(zoo_network)
        plan = zoo_network.inference_plan()
        for interpreted in (plan, plan.quantize(16)):
            compiled = compile_plan(interpreted, shape, batch_sizes=(1, 3))
            x = np.zeros((3,) + shape)
            expected = interpreted.run(x).shape[1:]
            assert compiled.program(1).output_shape == expected
            assert compiled.program(3).output_shape == expected


class TestCompileTimeShapeChecks:
    """A program fixes every shape at compile time, so an input the plan
    cannot take must be rejected by ``compile_plan`` with the plan's own
    message, not fail later inside a kernel."""

    @pytest.mark.parametrize("quantized", [False, True])
    def test_wrong_channel_count_rejected_at_compile(self, zoo_network,
                                                     quantized):
        channels, height, width = _input_shape(zoo_network)
        plan = zoo_network.inference_plan()
        if quantized:
            plan = plan.quantize(16)
        with pytest.raises(ValueError, match=(
                f"expected {channels} channels, got {channels + 2}")):
            compile_plan(plan, (channels + 2, height, width))

    @pytest.mark.parametrize("quantized", [False, True])
    def test_wrong_dense_width_rejected_at_compile(self, quantized):
        builder = NetworkBuilder("flat_dense", TensorShape(2, 4, 4))
        builder.conv("conv", 3, kernel_size=3, padding=1)
        builder.flatten("flat")
        builder.dense("fc", 5)
        net = GraphNetwork(builder.build(), rng=np.random.default_rng(3),
                           batch_norm=True).eval()
        plan = net.inference_plan()
        if quantized:
            plan = plan.quantize(16)
        with pytest.raises(ValueError,
                           match="expected 48 features, got 75"):
            compile_plan(plan, (2, 5, 5))


class TestKernelStrategies:
    def test_pointwise_dwgemm_and_join_write_through(self):
        b = NetworkBuilder("strat", TensorShape(4, 12, 12))
        b.conv("stem", 8, kernel_size=3, padding=1)
        b.depthwise_conv("dw", kernel_size=3, padding=1)
        left = b.conv("pw", 8, kernel_size=1, after="dw")
        right = b.conv("k3", 8, kernel_size=3, padding=1, after="dw")
        b.concat("cat", [left, right])
        b.pool("mp", kernel_size=2, stride=2)
        b.global_avg_pool("gap")
        b.dense("fc", 5, activation="identity")
        net = GraphNetwork(b.build(), rng=np.random.default_rng(2),
                           batch_norm=True)
        _randomize_running_stats(net)
        net.eval()
        compiled = compile_plan(net.inference_plan(), (4, 12, 12))
        strategies = compiled.program(1).strategies
        assert strategies["pw"].startswith("pointwise")
        assert strategies["dw"].startswith("dw-gemm")
        assert strategies["k3"].startswith("gemm")
        # Both concat feeders write straight into their channel slices.
        assert strategies["pw"].endswith("->join")
        assert strategies["k3"].endswith("->join")
        assert "taps" in strategies["mp"]
        # dw-gemm reorders the depthwise reduction vs the interpreted
        # einsum, so equality here is ≤1e-12, not bitwise.
        x = RNG.normal(size=(1, 4, 12, 12))
        np.testing.assert_allclose(
            compiled.run(x), net.inference_plan().run(x), atol=1e-12)

    def test_residual_add_runs_in_place(self):
        b = NetworkBuilder("residual", TensorShape(3, 10, 10))
        stem = b.conv("stem", 8, kernel_size=3, padding=1)
        b.conv("c1", 8, kernel_size=3, padding=1)
        b.conv("c2", 8, kernel_size=3, padding=1)
        b.add("res", ["c2", stem])
        b.global_avg_pool("gap")
        b.dense("fc", 4, activation="identity")
        net = GraphNetwork(b.build(), rng=np.random.default_rng(4),
                           batch_norm=True)
        _randomize_running_stats(net)
        net.eval()
        plan = net.inference_plan()
        compiled = compile_plan(plan, (3, 10, 10))
        assert "add[in-place]" in compiled.describe()
        x = RNG.normal(size=(1, 3, 10, 10))
        np.testing.assert_array_equal(compiled.run(x), plan.run(x))

    def test_describe_lists_every_step(self):
        net = _branchy_net()
        compiled = compile_plan(net.inference_plan(), _input_shape(net))
        description = compiled.describe()
        for step in net.inference_plan().steps:
            assert step.name in description


class TestBatchSpecialization:
    def test_autocompile_compiles_on_first_use(self):
        net = _branchy_net()
        compiled = CompiledPlan(net.inference_plan(), _input_shape(net),
                                batch_sizes=(1,))
        x = RNG.normal(size=(3,) + _input_shape(net))
        with obs.tracing() as tracer:
            compiled.run(x)
            compiled.run(x)  # compiled once, not per run
        assert compiled.batch_sizes == (1, 3)
        compiles = [s for s in tracer.spans if s.name == "infer.compile"]
        assert [s.meta["batch"] for s in compiles] == [3]

    def test_unseen_batch_runs_compiled_not_interpreted(self):
        # An unseen batch size gets its own program; the interpreted
        # plan is never run, so its arena sees no traffic, and the
        # answer is still the interpreter's, bit for bit.
        net = _branchy_net()
        plan = net.inference_plan()
        compiled = CompiledPlan(plan, _input_shape(net), batch_sizes=(1,))
        x = RNG.normal(size=(3,) + _input_shape(net))
        before = plan.arena.stats()
        out = compiled.run(x)
        assert plan.arena.stats() == before
        np.testing.assert_array_equal(out, net.inference_plan().run(x))

    def test_wrong_shape_raises_and_other_dtypes_cast(self):
        net = _branchy_net()
        compiled = CompiledPlan(net.inference_plan(), _input_shape(net))
        for bad in (RNG.normal(size=(1, 3, 6, 6)),
                    RNG.normal(size=_input_shape(net))):
            with pytest.raises(ValueError, match=(
                    r"expected input shape \(N,\) \+ \(3, 12, 12\), got")):
                compiled.run(bad)
        assert compiled.batch_sizes == (1,)
        x = RNG.normal(size=(1,) + _input_shape(net))
        np.testing.assert_array_equal(
            compiled.run(x.astype(np.float32)),
            compiled.run(x.astype(np.float32).astype(np.float64)))

    def test_batch4_rows_match_batch1_runs(self):
        net = _branchy_net()
        compiled = CompiledPlan(net.inference_plan(), _input_shape(net),
                                batch_sizes=(1, 4))
        x = RNG.normal(size=(4,) + _input_shape(net))
        stacked = compiled.run(x)
        singles = np.concatenate([compiled.run(x[i:i + 1])
                                  for i in range(4)])
        np.testing.assert_allclose(stacked, singles, atol=1e-12)


class TestHotPathIsStatic:
    def test_no_arena_traffic_after_compile(self):
        """The whole point: zero acquire/release on the hot path."""
        net = _branchy_net()
        plan = net.inference_plan()
        compiled = compile_plan(plan, _input_shape(net))
        x = RNG.normal(size=(1,) + _input_shape(net))
        compiled.run(x)  # first run binds the block
        before = plan.arena.stats()
        for _ in range(5):
            compiled.run(x)
        after = plan.arena.stats()
        assert before == after
        assert compiled.static_arena_bytes(1) > 0

    def test_output_is_not_a_view_of_the_arena(self):
        net = _branchy_net()
        compiled = compile_plan(net.inference_plan(), _input_shape(net))
        x = RNG.normal(size=(1,) + _input_shape(net))
        first = compiled.run(x)
        keep = first.copy()
        compiled.run(RNG.normal(size=(1,) + _input_shape(net)))
        np.testing.assert_array_equal(first, keep)

    def test_input_is_never_mutated(self):
        net = _branchy_net()
        compiled = compile_plan(net.inference_plan(), _input_shape(net))
        x = RNG.normal(size=(1,) + _input_shape(net))
        snapshot = x.copy()
        compiled.run(x)
        np.testing.assert_array_equal(x, snapshot)


class TestThreadSafety:
    THREADS = 8
    ROUNDS = 10

    def test_one_program_from_8_threads_via_private_arenas(self):
        """Threads share one plan: batch sizes compile on first use
        under contention, each thread runs in its own block, and no
        run goes uncounted."""
        net = _branchy_net()
        shape = _input_shape(net)
        compiled = compile_plan(net.inference_plan(), shape)
        xs = [np.random.default_rng(s).normal(size=(s + 1,) + shape)
              for s in range(4)]
        reference = compile_plan(net.inference_plan(), shape)
        expected = [reference.run(x) for x in xs]
        errors = []

        def worker(tid):
            try:
                for round_index in range(self.ROUNDS):
                    pick = (tid + round_index) % len(xs)
                    out = compiled.run(xs[pick])
                    np.testing.assert_array_equal(out, expected[pick])
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert compiled.batch_sizes == (1, 2, 3, 4)
        assert compiled.stats().runs == self.THREADS * self.ROUNDS
        # Every worker thread bound every program in its own block.
        for batch in compiled.batch_sizes:
            assert compiled.program(batch).bound_replicas >= self.THREADS


def _shared_block_net() -> GraphNetwork:
    """Depthwise, padded max-pool, concat and add: padded borders, join
    slices and im2col scratch are all regions a program refills."""
    b = NetworkBuilder("shared-block", TensorShape(3, 10, 10))
    b.conv("stem", 8, kernel_size=3, padding=1)
    b.depthwise_conv("dw", kernel_size=3, padding=1)
    b.conv("pw", 8, kernel_size=1)
    b.add("res", ["stem", "pw"])
    b.pool("mp", kernel_size=3, stride=1, padding=1)
    b.conv("right", 4, kernel_size=3, padding=1, after="res")
    b.concat("cat", ["mp", "right"])
    b.pool("down", kernel_size=2, stride=2)
    b.global_avg_pool("gap")
    b.dense("fc", 5, activation="identity")
    net = GraphNetwork(b.build(), rng=np.random.default_rng(4),
                       batch_norm=True)
    _randomize_running_stats(net)
    return net.eval()


class TestSharedBlock:
    """Every batch program a thread runs lives in that thread's one
    static block, sized for the largest compiled program."""

    BATCHES = (8, 1, 3, 8, 1)

    @pytest.mark.parametrize("bits", [None, 16], ids=["float", "int16"])
    def test_batch_programs_share_one_block_per_thread(self, bits):
        net = _shared_block_net()
        plan = net.inference_plan()
        if bits is not None:
            plan = plan.quantize(bits)
        shape = _input_shape(net)
        rng = np.random.default_rng(9)
        xs = [rng.normal(size=(b,) + shape) for b in self.BATCHES]
        compiled = compile_plan(plan, shape)
        seen = {}

        def worker():
            with obs.tracing() as tracer:
                seen["outs"] = [compiled.run(x) for x in xs]
            seen["blocks"] = tracer.counters["infer.compiled.block"]
            seen["block_bytes"] = compiled.block_bytes()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert compiled.batch_sizes == (1, 3, 8)
        for x, out in zip(xs, seen["outs"]):
            fresh = compile_plan(plan, shape, batch_sizes=(len(x),))
            np.testing.assert_array_equal(out, fresh.run(x))
        assert seen["blocks"] == 1
        assert seen["block_bytes"] == max(
            compiled.static_arena_bytes(b) for b in compiled.batch_sizes)
        assert compiled.block_bytes() == 0  # this thread bound nothing

    def test_static_blocks_grow_with_the_batch(self, zoo_network):
        """The premise of one block per thread: the largest batch's
        program needs the largest block, in both numeric domains."""
        plan = zoo_network.inference_plan()
        for p in (plan, plan.quantize(16)):
            compiled = compile_plan(p, _input_shape(zoo_network),
                                    batch_sizes=(1, 2, 3))
            sizes = [compiled.static_arena_bytes(b) for b in (1, 2, 3)]
            assert sizes == sorted(set(sizes)), sizes

    def test_larger_program_compiled_later_replaces_the_block(self):
        net = _shared_block_net()
        shape = _input_shape(net)
        compiled = compile_plan(net.inference_plan(), shape)
        x1 = RNG.normal(size=(1,) + shape)
        first = compiled.run(x1)
        assert compiled.block_bytes() == compiled.static_arena_bytes(1)
        compiled.run(RNG.normal(size=(4,) + shape))
        assert compiled.block_bytes() == compiled.static_arena_bytes(4)
        # Batch 1 binds again into the new block, with the same answer.
        np.testing.assert_array_equal(compiled.run(x1), first)


class TestStatsAndObs:
    def test_stats_reports_programs_and_arenas(self):
        net = _branchy_net()
        compiled = CompiledPlan(net.inference_plan(), _input_shape(net),
                                batch_sizes=(1, 2))
        compiled.run(RNG.normal(size=(1,) + _input_shape(net)))
        stats = compiled.stats()
        assert stats.compiled_batches == (1, 2)
        assert stats.runs == 1
        assert stats.arena_bytes[1] > 0
        assert stats.bound_replicas[1] >= 1

    def test_compile_and_step_spans_recorded(self):
        net = _branchy_net()
        float_plan = net.inference_plan()
        for plan in (float_plan, float_plan.quantize(16)):
            tracer = obs.enable()
            try:
                compiled = compile_plan(plan, _input_shape(net))
                compiled.run(RNG.normal(size=(1,) + _input_shape(net)))
            finally:
                obs.disable()
            names = [record.name for record in tracer.spans]
            assert "infer.compile" in names
            assert "infer.compiled" in names
            assert tracer.counters["infer.compiled.bind"] >= 1
            assert tracer.gauges["infer.compiled.arena_bytes"] > 0
            # One step span per executed step, keyed by the plan node
            # name (inputs and free reshape views execute nothing).
            executed = [step.name for step in compiled.program(1)._steps
                        if step.kind not in ("input", "alias")]
            steps = [record.meta["step"] for record in tracer.spans
                     if record.name == "infer.compiled_step"]
            assert steps == executed
            assert len(steps) >= len(plan.steps) // 2
            assert set(steps) <= {step.name for step in plan.steps}

    def test_wrong_shape_raises_through_both_entry_points(self):
        net = _branchy_net()
        qplan = net.inference_plan().quantize(16)
        compiled = compile_plan(qplan, _input_shape(net), batch_sizes=(1,))
        x2 = RNG.normal(size=(2,) + _input_shape(net))
        q2, s2 = quantize_batch(x2, 16)
        np.testing.assert_array_equal(compiled.run(x2), qplan.run(x2))
        np.testing.assert_array_equal(compiled.run_quantized(q2, s2),
                                      qplan.run(x2))
        with pytest.raises(ValueError, match="expected input shape"):
            compiled.run(x2[:, :, :4])
        with pytest.raises(ValueError, match="expected input shape"):
            compiled.run_quantized(q2[:, :, :4], s2)
        assert compiled.stats().compiled_batches == (1, 2)
        assert compiled.stats().runs == 2
