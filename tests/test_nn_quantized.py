"""Tests for the integer inference path: quantized plans end to end.

Covers the shared quantization primitives (half-to-even rounding,
non-finite rejection, per-sample batching), the fixed-point emulation
semantics (eval-mode walk that never mutates a training network, bias
inside the integer accumulation), exact integer convolution beyond
float64's 2**53, zoo-wide agreement of the int16
:class:`~repro.nn.quant.QuantizedInferencePlan` with both the float
plan and the :func:`~repro.nn.fixed_point.emulate_fixed_point` oracle,
the AOT-compiled quantized program's bit-identity with the interpreted
plan, quantized serving (thread and process), and the experiments
artifact's accuracy bar.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import NetworkBuilder, TensorShape
from repro.graph import layer_spec as spec
from repro.models import MODEL_FACTORIES
from repro.nn import (
    CompiledPlan,
    GraphNetwork,
    activation_dtype,
    build_quantized_plan,
    compile_quantized_plan,
    dequantize_batch,
    quantize_batch,
    symmetric_quantize,
)
from repro.nn.fixed_point import (
    _integer_conv,
    _quantize as fixed_point_quantize,
    emulate_fixed_point,
)
from repro.nn.functional import im2col
from repro.serve import Server, ServerConfig
from tests.test_nn_infer import _randomize_running_stats
from tests.test_serve import images, make_net

RNG = np.random.default_rng(9)


def _input_shape(net: GraphNetwork):
    shape = net.spec.input_shape
    return (shape.channels, shape.height, shape.width)


# -- shared primitives -------------------------------------------------------


class TestSymmetricQuantize:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        x = np.array([1.0, bad, -2.0])
        with pytest.raises(ValueError, match="non-finite"):
            symmetric_quantize(x, 16)
        with pytest.raises(ValueError, match="non-finite"):
            quantize_batch(x.reshape(1, 3), 16)

    def test_all_zero_convention(self):
        q, scale = symmetric_quantize(np.zeros(5), 16)
        assert scale == 1.0
        assert not q.any()
        qb, scales = quantize_batch(np.zeros((2, 5)), 16)
        assert not qb.any()
        np.testing.assert_array_equal(scales, [1.0, 1.0])

    def test_half_to_even_ties(self):
        # max|x| = 3 at bits=3 gives scale exactly 1, so the inputs ARE
        # the pre-round levels: ties must land on the even neighbour.
        x = np.array([3.0, 0.5, 1.5, 2.5, -0.5, -1.5])
        q, scale = symmetric_quantize(x, 3)
        assert scale == 1.0
        np.testing.assert_array_equal(q, [3, 0, 2, 2, 0, -2])

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                    max_size=32),
           st.integers(min_value=2, max_value=16))
    def test_rounding_shared_with_fixed_point(self, values, bits):
        """The oracle and the plan must quantize identically, always."""
        x = np.array(values)
        q_a, s_a = symmetric_quantize(x, bits)
        q_b, s_b = fixed_point_quantize(x, bits)
        assert s_a == s_b
        np.testing.assert_array_equal(q_a, q_b)
        # And both follow numpy's half-to-even convention exactly.
        if s_a:
            qmax = 2 ** (bits - 1) - 1
            expected = np.clip(np.round(x / s_a), -qmax, qmax)
            np.testing.assert_array_equal(q_a, expected.astype(np.int64))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=2, max_value=16))
    def test_quantize_batch_is_per_sample(self, bits):
        """A sample's bytes never depend on its batch mates."""
        xs = np.random.default_rng(bits).normal(size=(4, 3, 5, 5))
        xs[1] *= 100.0  # an outlier sample must not disturb the others
        q_all, s_all = quantize_batch(xs, bits)
        for i in range(len(xs)):
            q_one, s_one = quantize_batch(xs[i:i + 1], bits)
            np.testing.assert_array_equal(q_all[i], q_one[0])
            assert s_all[i] == s_one[0]

    def test_dequantize_roundtrip_error_bound(self):
        xs = RNG.normal(size=(3, 2, 4, 4))
        q, scales = quantize_batch(xs, 16)
        back = dequantize_batch(q, scales)
        # Half a step per sample is the worst symmetric rounding error.
        for i in range(len(xs)):
            assert np.abs(back[i] - xs[i]).max() <= scales[i] / 2 + 1e-15

    def test_activation_dtype_widths(self):
        assert activation_dtype(8) == np.int8
        assert activation_dtype(4) == np.int8
        assert activation_dtype(16) == np.int16
        assert activation_dtype(9) == np.int16
        assert activation_dtype(32) == np.int32


# -- emulation semantics (the oracle must be safe to call any time) ----------


class TestEmulationSemantics:
    def test_training_network_left_untouched(self):
        """Regression: emulation must not flip modes or mutate BN stats."""
        net = make_net()
        for bn in net._bn.values():
            bn.training = True  # a network mid-training
        for node in net._nodes:
            for m in (node.module, node.activation):
                if m is not None:
                    m.training = True
        saved_means = {k: bn.running_mean.copy()
                       for k, bn in net._bn.items()}
        saved_vars = {k: bn.running_var.copy() for k, bn in net._bn.items()}
        emulate_fixed_point(net, images(4), 16, 16)
        for key, bn in net._bn.items():
            np.testing.assert_array_equal(bn.running_mean, saved_means[key])
            np.testing.assert_array_equal(bn.running_var, saved_vars[key])
            assert bn.training  # restored, not left in eval
        assert all(m.training for node in net._nodes
                   for m in (node.module, node.activation) if m is not None)

    def test_emulation_matches_eval_forward_regardless_of_mode(self):
        """Train-mode and eval-mode callers see the same emulation."""
        net = make_net()
        x = images(2)
        eval_out, _ = emulate_fixed_point(net, x, 16, 16)
        for bn in net._bn.values():
            bn.training = True
        train_out, _ = emulate_fixed_point(net, x, 16, 16)
        np.testing.assert_array_equal(eval_out, train_out)

    def test_bias_lands_in_accumulator_report(self):
        """The bias is added inside the integer sum, so a huge bias must
        blow up ``per_layer_acc_bits`` for exactly that layer."""
        net = make_net(seed=8)
        _, before = emulate_fixed_point(net, images(2), 16, 16)
        conv = next(n for n in net._nodes if n.module is not None
                    and getattr(n.module, "bias", None) is not None)
        conv.module.bias.value = conv.module.bias.value + 1e9
        _, after = emulate_fixed_point(net, images(2), 16, 16)
        name = conv.name
        assert after.per_layer_acc_bits[name] > before.per_layer_acc_bits[name]
        assert name in after.saturated_layers


# -- exact integer convolution (satellite: dtype-preserving im2col) ----------


class TestIntegerConvExactness:
    def test_im2col_preserves_integer_dtype_and_values(self):
        big = np.int64(1) << 60
        x = np.zeros((1, 1, 3, 3), dtype=np.int64)
        x[0, 0, 1, 1] = big
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        assert cols.dtype == np.int64
        # The big value appears exactly, never squeezed through float.
        assert (cols == big).sum() == 9

    def test_integer_conv_exact_beyond_float64(self):
        """Products above 2**53 must come out exact (int64 end to end).

        This is the widest-activation case: float64 staging anywhere in
        the conv would silently round these products.
        """
        conv = spec.Conv2D(in_channels=1, out_channels=1, kernel_size=1,
                           activation="identity")
        q_in = np.array([[[[(1 << 31) + 1]]]], dtype=np.int64)
        q_w = np.array([[[[(1 << 27) + 1]]]], dtype=np.int64)
        out = _integer_conv(q_in, q_w, conv)
        expected = ((1 << 31) + 1) * ((1 << 27) + 1)  # odd: 2**58 + ...
        assert out.dtype == np.int64
        assert int(out[0, 0, 0, 0]) == expected
        # float64 provably cannot represent this product.
        assert int(np.float64(expected)) != expected


# -- zoo-wide plan agreement -------------------------------------------------


@pytest.fixture(scope="module", params=sorted(MODEL_FACTORIES))
def zoo_network(request):
    net = GraphNetwork(MODEL_FACTORIES[request.param](),
                       rng=np.random.default_rng(0), batch_norm=True)
    _randomize_running_stats(net)
    return net.eval()


class TestQuantizedPlanZoo:
    """The issue's acceptance bar, zoo-wide: the int16 plan tracks the
    float plan closely and stays within the per-layer requantization
    tolerance of the fixed-point oracle."""

    def test_int16_tracks_float_plan(self, zoo_network):
        net = zoo_network
        x = np.random.default_rng(3).normal(size=(2,) + _input_shape(net))
        float_out = net.inference_plan().run(x)
        q_out = net.inference_plan().quantize(16).run(x)
        denom = max(float(np.abs(float_out).max()), 1e-12)
        assert np.abs(q_out - float_out).max() / denom < 2e-3

    def test_int16_within_oracle_tolerance(self, zoo_network):
        net = zoo_network
        x = np.random.default_rng(4).normal(size=(1,) + _input_shape(net))
        oracle_out, _ = emulate_fixed_point(net, x, 16, 16)
        plan_out = net.inference_plan().quantize(16).run(x)
        denom = max(float(np.abs(oracle_out).max()), 1e-12)
        # Both paths requantize per layer but with different scale
        # granularity (per-channel/per-sample vs per-tensor), so they
        # agree to a small multiple of 1/qmax per layer, not bitwise.
        assert np.abs(plan_out - oracle_out).max() / denom < 5e-3

    def test_peak_live_shrinks(self, zoo_network):
        net = zoo_network
        x = np.random.default_rng(5).normal(size=(2,) + _input_shape(net))
        plan = net.inference_plan()
        plan.run(x)
        float_peak = plan.last_peak_live_bytes
        q16 = net.inference_plan().quantize(16)
        q16.run(x)
        assert q16.last_peak_live_bytes <= 0.3 * float_peak
        q8 = net.inference_plan().quantize(8)
        q8.run(x)
        assert q8.last_peak_live_bytes <= 0.2 * float_peak

    def test_batching_is_bit_identical(self, zoo_network):
        net = zoo_network
        xs = np.random.default_rng(6).normal(size=(3,) + _input_shape(net))
        qplan = net.inference_plan().quantize(16)
        batched = qplan.run(xs)
        for i in range(len(xs)):
            np.testing.assert_array_equal(batched[i],
                                          qplan.run(xs[i:i + 1])[0])


class TestQuantizedPlanSmall:
    def test_run_quantized_entry_matches_run(self):
        net = make_net()
        xs = images(4)
        qplan = net.inference_plan().quantize(16)
        q, scales = quantize_batch(xs, 16)
        np.testing.assert_array_equal(qplan.run(xs),
                                      qplan.run_quantized(q, scales))

    def test_layer_stats_populated(self):
        net = make_net()
        qplan = net.inference_plan().quantize(16)
        qplan.run(images(2))
        stats = qplan.last_layer_stats
        assert stats
        for entry in stats.values():
            assert entry["acc_bits"] >= 1
            assert entry["weight_scale_min"] <= entry["weight_scale_max"]

    def test_build_quantized_plan_shortcut(self):
        net = make_net()
        xs = images(2)
        np.testing.assert_array_equal(
            build_quantized_plan(net, 16).run(xs),
            net.inference_plan().quantize(16).run(xs))

    def test_bits_validation(self):
        net = make_net()
        plan = net.inference_plan()
        with pytest.raises(ValueError):
            plan.quantize(1)
        with pytest.raises(ValueError):
            plan.quantize(17)

    def test_clone_is_independent_and_identical(self):
        net = make_net()
        xs = images(3)
        qplan = net.inference_plan().quantize(16)
        clone = qplan.clone()
        assert clone.arena is not qplan.arena
        np.testing.assert_array_equal(qplan.run(xs), clone.run(xs))


# -- AOT-compiled quantized programs -----------------------------------------


class TestCompiledQuantized:
    @pytest.mark.parametrize("batch,bits", [(1, 16), (3, 16), (1, 8),
                                            (3, 8)],
                             ids=["1", "3", "1-int8", "3-int8"])
    def test_compiled_bit_identical_zoo(self, zoo_network, batch, bits):
        net = zoo_network
        x = np.random.default_rng(batch).normal(
            size=(batch,) + _input_shape(net))
        qplan = net.inference_plan().quantize(bits)
        compiled = compile_quantized_plan(qplan, _input_shape(net),
                                          batch_sizes=(batch,))
        assert isinstance(compiled, CompiledPlan)
        np.testing.assert_array_equal(compiled.run(x), qplan.run(x))

    @pytest.mark.parametrize("bits", [16, 8])
    def test_float_module_outputs_feeding_integer_steps(self, bits):
        # An avg-pool runs as a float module; its output is quantized
        # into conv/pointwise/max-pool stages, rescaled into a concat
        # and summed as floats into an add, exactly as the plan does.
        b = NetworkBuilder("module-feeds", TensorShape(3, 8, 8))
        b.conv("c0", 6, kernel_size=3, padding=1)
        b.pool("ap", kernel_size=2, stride=2, mode="avg")
        b.conv("c1", 6, kernel_size=3, padding=1, after="ap")
        b.conv("c1p", 6, kernel_size=1, after="ap")
        b.pool("mp", kernel_size=3, stride=1, padding=1, after="ap")
        b.concat("cat", ["c1", "c1p", "ap", "mp"])
        b.conv("c2", 6, kernel_size=1)
        b.add("res", ["c2", "ap"])
        b.global_avg_pool("gap")
        b.flatten("fl")
        b.dense("fc", 5, activation="identity")
        net = GraphNetwork(b.build(), rng=np.random.default_rng(2),
                           batch_norm=True).eval()
        qplan = net.inference_plan().quantize(bits)
        compiled = compile_quantized_plan(qplan, (3, 8, 8),
                                          batch_sizes=(3,))
        xs = images(3)
        np.testing.assert_array_equal(compiled.run(xs), qplan.run(xs))
        assert compiled.batch_sizes == (3,)

    def test_static_arena_smaller_than_float(self, zoo_network):
        net = zoo_network
        shape = _input_shape(net)
        from repro.nn import compile_plan
        float_compiled = compile_plan(net.inference_plan(), shape,
                                      batch_sizes=(2,))
        q_compiled = compile_quantized_plan(
            net.inference_plan().quantize(16), shape, batch_sizes=(2,))
        assert (q_compiled.static_arena_bytes(2)
                < float_compiled.static_arena_bytes(2))

    def test_run_quantized_entry(self):
        net = make_net()
        xs = images(2)
        qplan = net.inference_plan().quantize(16)
        compiled = compile_quantized_plan(qplan, (3, 8, 8), batch_sizes=(2,))
        q, scales = quantize_batch(xs, 16)
        np.testing.assert_array_equal(compiled.run_quantized(q, scales),
                                      qplan.run(xs))

    def test_unseen_batch_compiles_and_wrong_shape_raises(self):
        net = make_net()
        qplan = net.inference_plan().quantize(16)
        compiled = compile_quantized_plan(qplan, (3, 8, 8), batch_sizes=(2,))
        # An unplanned batch size compiles on first use...
        np.testing.assert_array_equal(compiled.run(images(5)),
                                      qplan.run(images(5)))
        assert compiled.batch_sizes == (2, 5)
        # ...and an input of another per-sample shape is refused.
        q, scales = quantize_batch(images(2), 16)
        with pytest.raises(ValueError, match="expected input shape"):
            compiled.run(images(2)[:, :2])
        with pytest.raises(ValueError, match="expected input shape"):
            compiled.run_quantized(q[:, :, :4], scales)

    def test_int8_compiled(self):
        net = make_net()
        xs = images(4)
        qplan = net.inference_plan().quantize(8)
        compiled = compile_quantized_plan(qplan, (3, 8, 8), batch_sizes=(4,))
        np.testing.assert_array_equal(compiled.run(xs), qplan.run(xs))


# -- quantized serving -------------------------------------------------------


class TestQuantizedServing:
    def test_thread_serving_bit_identical(self):
        net = make_net()
        reference = net.inference_plan().quantize(16)
        xs = images(12)
        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=5.0,
                              quantized_bits=16)
        with Server.for_network(net, config) as server:
            results = [f.result(timeout=30)
                       for f in [server.submit(x) for x in xs]]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result,
                                          reference.run(xs[i:i + 1])[0])

    def test_thread_serving_int8(self):
        net = make_net()
        reference = net.inference_plan().quantize(8)
        xs = images(4)
        config = ServerConfig(workers=1, max_batch_size=4,
                              quantized_bits=8)
        with Server.for_network(net, config) as server:
            results = [f.result(timeout=30)
                       for f in [server.submit(x) for x in xs]]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result,
                                          reference.run(xs[i:i + 1])[0])

    def test_process_serving_bit_identical(self):
        net = make_net()
        reference = net.inference_plan().quantize(16)
        xs = images(8)
        config = ServerConfig(workers=1, max_batch_size=4, max_wait_ms=2.0,
                              worker_mode="process", quantized_bits=16)
        with Server.for_network(net, config) as server:
            ring = server._procpool._req_rings[0]
            assert ring.handle.payload_dtype == "<i2"
            results = [f.result(timeout=60)
                       for f in [server.submit(x) for x in xs]]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result,
                                          reference.run(xs[i:i + 1])[0])

    def test_config_rejects_bad_combinations(self):
        with pytest.raises(ValueError):
            ServerConfig(quantized_bits=1)
        with pytest.raises(ValueError):
            ServerConfig(quantized_bits=17)


# -- the experiments artifact ------------------------------------------------


class TestQuantizationExperiment:
    def test_int16_accuracy_within_half_percent(self):
        from repro.experiments.quantization import (
            format_quantization,
            run_quantization,
        )
        report = run_quantization(quant_bits=(16,))
        row = report.rows[0]
        assert row.accuracy_delta <= 0.005  # the issue's acceptance bar
        assert row.agreement >= 0.99
        assert row.within_oracle_tolerance
        assert row.peak_live_ratio <= 0.3
        rendered = format_quantization(report)
        assert "int16" in rendered
        assert "oracle" in rendered

    def test_runner_quant_artifact_and_flag_matrix(self):
        from repro.experiments import run

        out = run(["quant"], quant_bits=16)
        assert "int16" in out and "int8" not in out
        with pytest.warns(UserWarning, match="--quant-bits ignored"):
            run(["t1"], quant_bits=8)
