"""Tests for the vectorized inference runtime.

Covers the batched grouped/depthwise convolution kernels (equivalence
against the looped reference plus numeric gradient checks), the
inference-mode cache gating (``eval`` / ``no_grad``), the conv+BN+ReLU
fusion pass, the liveness-driven memory planner, and the max-pool
padding regression.
"""

import numpy as np
import pytest

from repro.graph import NetworkBuilder, TensorShape
from repro.graph import layer_spec as spec
from repro.models import MODEL_FACTORIES
from repro.nn import (
    BufferArena,
    FusedConv2D,
    GraphNetwork,
    build_inference_plan,
    fold_batchnorm,
    layers,
    no_grad,
)
from repro.nn.infer import liveness_release_schedule, release_dead
from repro.nn.module import is_grad_enabled
from tests.test_nn_layers import check_input_gradient, check_param_gradients

RNG = np.random.default_rng(99)


def looped_reference_forward(net: GraphNetwork, x: np.ndarray) -> np.ndarray:
    """Walk the graph using the per-group looped conv reference."""
    values = {}
    for node in net._nodes:
        if isinstance(node.spec, spec.Input):
            values[node.name] = x
        elif isinstance(node.spec, spec.Concat):
            values[node.name] = np.concatenate(
                [values[n] for n in node.inputs], axis=1)
        elif isinstance(node.spec, spec.Add):
            total = values[node.inputs[0]].copy()
            for n in node.inputs[1:]:
                total += values[n]
            values[node.name] = total
        else:
            v = values[node.inputs[0]]
            module = node.module
            out = (module.forward_reference(v)
                   if isinstance(module, layers.Conv2D) else module(v))
            if node.name in net._bn:
                out = net._bn[node.name](out)
            if node.activation is not None:
                out = node.activation(out)
            values[node.name] = out
    return values[net._nodes[-1].name]


class TestBatchedConvKernels:
    """The single-GEMM grouped kernel must match the looped reference."""

    CASES = [
        dict(cin=3, cout=8, kernel=(3, 3), stride=(1, 1), padding=(1, 1),
             groups=1),
        dict(cin=4, cout=6, kernel=(3, 3), stride=(2, 2), padding=(1, 1),
             groups=2),
        dict(cin=6, cout=9, kernel=(1, 1), stride=(1, 1), padding=(0, 0),
             groups=3),
        dict(cin=8, cout=8, kernel=(3, 3), stride=(1, 1), padding=(1, 1),
             groups=8),                                     # depthwise
        dict(cin=8, cout=16, kernel=(3, 3), stride=(2, 2), padding=(1, 1),
             groups=8),                # depthwise, channel multiplier 2
        dict(cin=4, cout=4, kernel=(3, 1), stride=(1, 1), padding=(1, 0),
             groups=4),                       # separable-style kernel
    ]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("batch", [1, 4])
    def test_matches_looped_reference(self, case, batch):
        conv = layers.Conv2D(case["cin"], case["cout"], case["kernel"],
                             stride=case["stride"], padding=case["padding"],
                             groups=case["groups"],
                             rng=np.random.default_rng(5))
        x = RNG.normal(size=(batch, case["cin"], 9, 9))
        reference = conv.forward_reference(x)
        np.testing.assert_allclose(conv.forward(x), reference, atol=1e-6)
        conv.eval()  # eval takes the no-cache (and depthwise) fast path
        np.testing.assert_allclose(conv.forward(x), reference, atol=1e-6)

    def test_grouped_backward_gradients(self):
        conv = layers.Conv2D(4, 6, (3, 3), padding=(1, 1), groups=2,
                             rng=np.random.default_rng(6))
        x = RNG.normal(size=(2, 4, 5, 5))
        check_input_gradient(conv, x)
        check_param_gradients(conv, x)

    def test_depthwise_multiplier_backward_gradients(self):
        conv = layers.Conv2D(3, 6, (3, 3), padding=(1, 1), groups=3,
                             rng=np.random.default_rng(7))
        x = RNG.normal(size=(2, 3, 5, 5))
        check_input_gradient(conv, x)
        check_param_gradients(conv, x)

    def test_strided_grouped_backward_gradients(self):
        conv = layers.Conv2D(4, 4, (3, 3), stride=(2, 2), padding=(1, 1),
                             groups=4, rng=np.random.default_rng(8))
        check_input_gradient(conv, RNG.normal(size=(1, 4, 6, 6)))


class TestMaxPoolPadding:
    def test_padded_maxpool_never_selects_the_pad(self):
        """Regression: zero-padding used to beat negative activations."""
        pool = layers.MaxPool2D((3, 3), (2, 2), padding=(1, 1))
        x = -1.0 - RNG.random((2, 3, 6, 6))  # strictly negative input
        out = pool.forward(x)
        assert out.max() < 0.0
        # Corner window sees only the 2x2 in-bounds patch.
        np.testing.assert_allclose(out[:, :, 0, 0],
                                   x[:, :, :2, :2].max(axis=(2, 3)))

    def test_padded_maxpool_gradient(self):
        pool = layers.MaxPool2D((3, 3), (2, 2), padding=(1, 1))
        x = -1.0 - RNG.random((1, 2, 6, 6))
        check_input_gradient(pool, x)

    def test_unpadded_behaviour_unchanged(self):
        pool = layers.MaxPool2D((2, 2), (2, 2))
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        np.testing.assert_array_equal(pool.forward(x)[0, 0],
                                      [[5, 7], [13, 15]])


class TestInferenceModeCaching:
    def _layers_with_cache(self):
        rng = np.random.default_rng(3)
        return [
            (layers.Conv2D(2, 4, (3, 3), padding=(1, 1), rng=rng),
             (1, 2, 5, 5), "_cache"),
            (layers.Dense(8, 3, rng=rng), (2, 8), "_cache"),
            (layers.ReLU(), (2, 6), "_mask"),
            (layers.MaxPool2D((2, 2), (2, 2)), (1, 2, 4, 4), "_cache"),
            (layers.AvgPool2D((2, 2), (2, 2)), (1, 2, 4, 4), "_input_shape"),
            (layers.GlobalAvgPool(), (1, 2, 4, 4), "_input_shape"),
            (layers.Flatten(), (1, 2, 4, 4), "_input_shape"),
            (layers.BatchNorm2D(2), (2, 2, 3, 3), "_cache"),
            (layers.Softmax(), (2, 5), "_out"),
        ]

    def test_eval_skips_every_cache(self):
        for module, shape, attr in self._layers_with_cache():
            module.eval()
            module.forward(RNG.normal(size=shape))
            assert getattr(module, attr) is None, type(module).__name__

    def test_no_grad_skips_caches_in_training_mode(self):
        for module, shape, attr in self._layers_with_cache():
            assert module.training
            with no_grad():
                module.forward(RNG.normal(size=shape))
            assert getattr(module, attr) is None, type(module).__name__

    def test_training_mode_still_caches_and_backprops(self):
        conv = layers.Conv2D(2, 2, (3, 3), padding=(1, 1),
                             rng=np.random.default_rng(4))
        out = conv.forward(RNG.normal(size=(1, 2, 4, 4)))
        assert conv._cache is not None
        assert conv.backward(np.ones_like(out)).shape == (1, 2, 4, 4)

    def test_backward_after_eval_forward_raises(self):
        conv = layers.Conv2D(2, 2, (1, 1), rng=np.random.default_rng(4))
        conv.eval()
        out = conv.forward(RNG.normal(size=(1, 2, 3, 3)))
        with pytest.raises(RuntimeError):
            conv.backward(np.ones_like(out))

    def test_eval_forward_clears_stale_training_cache(self):
        relu = layers.ReLU()
        relu.forward(RNG.normal(size=(2, 3)))
        relu.eval()
        relu.forward(RNG.normal(size=(2, 3)))
        assert relu._mask is None

    def test_no_grad_restores_flag_on_exception(self):
        assert is_grad_enabled()
        with pytest.raises(ValueError):
            with no_grad():
                assert not is_grad_enabled()
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_no_grad_nests(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


def branchy_spec():
    b = NetworkBuilder("branchy", TensorShape(3, 12, 12))
    trunk = b.conv("trunk", 6, kernel_size=3, padding=1)
    left = b.conv("left", 6, kernel_size=1, after=trunk)
    right = b.conv("right", 6, kernel_size=3, padding=1, after=trunk)
    b.concat("cat", [left, right])
    b.add("res", ["cat", "cat"])
    b.pool("pool", kernel_size=2, stride=2)
    b.conv("head", 8, kernel_size=3, padding=1)
    b.global_avg_pool("gap")
    b.dense("fc", 5, activation="identity")
    return b.build()


def _randomize_running_stats(net: GraphNetwork, seed: int = 11) -> None:
    rng = np.random.default_rng(seed)
    for bn in net._bn.values():
        bn.running_mean = rng.normal(scale=0.3, size=bn.channels)
        bn.running_var = rng.uniform(0.5, 2.0, size=bn.channels)


class TestGraphNetworkMemoryPlanner:
    def test_eval_forward_does_not_retain_activations(self):
        net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(1))
        net.eval()
        net.forward(RNG.normal(size=(2, 3, 12, 12)))
        assert net._activations == {}

    def test_training_forward_retains_activations_for_backward(self):
        net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(1))
        net.forward(RNG.normal(size=(2, 3, 12, 12)))
        assert len(net._activations) == len(net._nodes)
        net.backward(np.ones((2, 5)))  # must not raise

    def test_eval_forward_matches_training_math(self):
        net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(2))
        x = RNG.normal(size=(2, 3, 12, 12))
        reference = net.forward(x)
        net.eval()
        np.testing.assert_allclose(net.forward(x), reference, atol=1e-12)

    def test_repeated_eval_forwards_reuse_arena_without_corruption(self):
        net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(2))
        net.eval()
        xs = [RNG.normal(size=(2, 3, 12, 12)) for _ in range(3)]
        first = [net.forward(x).copy() for x in xs]
        assert net._arena.hits > 0  # buffers actually recycled
        second = [net.forward(x) for x in xs]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_liveness_schedule_protects_inputs_and_output(self):
        net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(1))
        released = [n for names in net._release_after for n in names]
        assert net._nodes[-1].name not in released
        for name in net._input_names:
            assert name not in released

    def test_release_dead_refuses_aliased_buffers(self):
        arena = BufferArena()
        owner = np.zeros((4, 4))
        view = owner.reshape(16)
        values = {"a": owner, "b": view}
        release_dead(values, ["a"], arena)  # 'b' still aliases the memory
        assert arena.releases == 0
        release_dead(values, ["b"], arena)  # views never own memory
        assert arena.releases == 0

    def test_liveness_schedule_shape(self):
        class Node:
            def __init__(self, name, inputs):
                self.name, self.inputs = name, inputs

        nodes = [Node("in", []), Node("a", ["in"]), Node("b", ["a"]),
                 Node("out", ["a", "b"])]
        schedule = liveness_release_schedule(nodes, {"in"})
        assert schedule == [[], [], [], ["a", "b"]]


class TestFusionPass:
    def test_fold_batchnorm_matches_sequential(self):
        conv = layers.Conv2D(3, 5, (3, 3), padding=(1, 1),
                             rng=np.random.default_rng(1))
        bn = layers.BatchNorm2D(5)
        rng = np.random.default_rng(2)
        bn.running_mean = rng.normal(size=5)
        bn.running_var = rng.uniform(0.5, 2.0, size=5)
        bn.gamma.value = rng.normal(size=5)
        bn.beta.value = rng.normal(size=5)
        bn.eval()
        conv.eval()
        x = RNG.normal(size=(2, 3, 6, 6))
        reference = np.maximum(bn(conv(x)), 0.0)
        fused = FusedConv2D(conv, bn, relu=True)
        np.testing.assert_allclose(fused(x, BufferArena()), reference,
                                   atol=1e-9)

    def test_fold_batchnorm_leaves_originals_untouched(self):
        conv = layers.Conv2D(2, 3, (1, 1), rng=np.random.default_rng(3))
        bn = layers.BatchNorm2D(3)
        before = conv.weight.value.copy()
        fold_batchnorm(conv.weight.value, conv.bias.value, bn)
        np.testing.assert_array_equal(conv.weight.value, before)

    def test_plan_fuses_conv_bn_relu(self):
        net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(4),
                           batch_norm=True)
        _randomize_running_stats(net)
        plan = build_inference_plan(net)
        assert plan.fused_step_count >= 4
        assert "conv+bn+relu" in plan.describe()

    def test_plan_matches_unfused_eval_forward(self):
        net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(5),
                           batch_norm=True)
        _randomize_running_stats(net)
        net.eval()
        x = RNG.normal(size=(2, 3, 12, 12))
        reference = net.forward(x)
        plan = net.inference_plan()
        np.testing.assert_allclose(plan.run(x), reference, atol=1e-6)

    def test_plan_is_deterministic_even_from_training_mode(self):
        """Dropout and BN batch statistics must not leak into a plan."""
        b = NetworkBuilder("drop", TensorShape(3, 8, 8))
        b.conv("c1", 4, kernel_size=3, padding=1)
        b.global_avg_pool("gap")
        b.dense("fc", 4, activation="identity")
        net = GraphNetwork(b.build(), rng=np.random.default_rng(6),
                           batch_norm=True)
        _randomize_running_stats(net)
        assert net.training  # plan built while the net still trains
        plan = net.inference_plan()
        x = RNG.normal(size=(1, 3, 8, 8))
        np.testing.assert_array_equal(plan.run(x), plan.run(x))
        net.eval()
        np.testing.assert_allclose(plan.run(x), net.forward(x), atol=1e-6)

    def test_plan_snapshot_is_isolated_from_weight_mutation(self):
        net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(7))
        net.eval()
        x = RNG.normal(size=(1, 3, 12, 12))
        plan = net.inference_plan()
        before = plan.run(x).copy()
        for p in net.parameters():
            p.value = p.value + 1.0
        np.testing.assert_array_equal(plan.run(x), before)

    def test_arena_reuse_across_plan_runs(self):
        net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(8))
        net.eval()
        plan = net.inference_plan(arena=BufferArena())
        x = RNG.normal(size=(2, 3, 12, 12))
        plan.run(x)
        misses_after_first = plan.arena.misses
        plan.run(x)
        assert plan.arena.hits > 0
        assert plan.arena.misses - misses_after_first < misses_after_first
        assert plan.last_peak_live_bytes > 0


@pytest.fixture(scope="module", params=sorted(MODEL_FACTORIES))
def zoo_network(request):
    """Each paper-zoo model lowered to numpy with randomized BN stats."""
    network_spec = MODEL_FACTORIES[request.param]()
    net = GraphNetwork(network_spec, rng=np.random.default_rng(0),
                       batch_norm=True)
    _randomize_running_stats(net)
    net.eval()
    return net


class TestZooEquivalence:
    """Batched kernels and the fused plan vs the looped reference,
    on every zoo model, at batch 1 and batch 4 (the issue's acceptance
    bar for the vectorized runtime)."""

    @pytest.mark.parametrize("batch", [1, 4])
    def test_batched_and_fused_match_looped_reference(self, zoo_network,
                                                      batch):
        net = zoo_network
        shape = net.spec.input_shape
        x = np.random.default_rng(batch).normal(
            size=(batch, shape.channels, shape.height, shape.width))
        reference = looped_reference_forward(net, x)
        batched = net.forward(x)
        np.testing.assert_allclose(batched, reference, atol=1e-6)
        plan = net.inference_plan()
        np.testing.assert_allclose(plan.run(x), reference, atol=1e-6)
        assert net._activations == {}


class TestEvalReentrancy:
    """The serving runtime's correctness requirement: eval-mode forward
    and plan execution must be reentrant, with bit-identical outputs
    when one model is hammered from many threads at once."""

    THREADS = 8
    ROUNDS = 10

    def _net(self):
        net = GraphNetwork(branchy_spec(), rng=np.random.default_rng(1),
                           batch_norm=True)
        _randomize_running_stats(net)
        return net.eval()

    def _hammer(self, worker):
        import threading
        errors = []
        threads = [threading.Thread(target=worker, args=(tid, errors))
                   for tid in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]

    def test_plan_clones_bit_identical_across_8_threads(self):
        net = self._net()
        plan = net.inference_plan()
        xs = [np.random.default_rng(s).normal(size=(2, 3, 12, 12))
              for s in range(4)]
        expected = [plan.run(x).copy() for x in xs]

        def worker(tid, errors):
            try:
                mine = plan.clone()
                for round_index in range(self.ROUNDS):
                    pick = (tid + round_index) % len(xs)
                    out = mine.run(xs[pick])
                    np.testing.assert_array_equal(out, expected[pick])
            except Exception as error:  # pragma: no cover
                errors.append(error)

        self._hammer(worker)

    def test_eval_forward_bit_identical_across_8_threads(self):
        net = self._net()
        xs = [np.random.default_rng(s).normal(size=(2, 3, 12, 12))
              for s in range(4)]
        expected = [net.forward(x).copy() for x in xs]

        def worker(tid, errors):
            try:
                for round_index in range(self.ROUNDS):
                    pick = (tid + round_index) % len(xs)
                    out = net.forward(xs[pick])
                    np.testing.assert_array_equal(out, expected[pick])
            except Exception as error:  # pragma: no cover
                errors.append(error)

        self._hammer(worker)
        # Each thread got its own arena replica; stats aggregate them.
        stats = net.arena_stats()
        assert stats["hits"] > 0
        assert len(net._arenas.replicas()) >= self.THREADS

    def test_no_grad_state_is_thread_local(self):
        import threading
        assert is_grad_enabled()
        seen = {}

        def peek():
            seen["inner"] = is_grad_enabled()

        with no_grad():
            assert not is_grad_enabled()
            t = threading.Thread(target=peek)
            t.start()
            t.join()
        # A fresh thread starts with grad enabled even while another
        # thread sits inside no_grad().
        assert seen["inner"] is True
        assert is_grad_enabled()

    def test_plan_clone_shares_weights_but_not_arena(self):
        net = self._net()
        plan = net.inference_plan()
        twin = plan.clone()
        assert twin.arena is not plan.arena
        fused = {s.name: s.op for s in plan.steps
                 if s.kind in ("fused_conv", "fused_dense")}
        twin_fused = {s.name: s.op for s in twin.steps
                      if s.kind in ("fused_conv", "fused_dense")}
        assert fused and fused == twin_fused  # same op objects (weights)
        x = RNG.normal(size=(2, 3, 12, 12))
        np.testing.assert_array_equal(plan.run(x), twin.run(x))
        assert twin.arena.misses > 0  # the clone used its own arena
