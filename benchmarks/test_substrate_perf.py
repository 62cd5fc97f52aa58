"""Performance benchmarks of the substrates themselves.

Not paper artifacts — these track the cost of the repository's own
machinery (simulator throughput, numpy kernel speed, training step), so
regressions in the tooling are visible.
"""

import numpy as np

from repro.accel import Squeezelerator
from repro.core.sweep import SweepEngine
from repro.core.tuner import tune_for_network
from repro.graph import NetworkBuilder, TensorShape
from repro.models import build_model, squeezenet_v1_0, squeezenext
from repro.nn import GraphNetwork, SGD, Trainer, make_shapes_dataset
from repro.nn.layers import Conv2D

from bench_timing import best_of


def test_simulator_throughput_squeezenet(benchmark):
    """Full-network analytical simulation must stay interactive."""
    accelerator = Squeezelerator(32)
    network = squeezenet_v1_0()
    report = benchmark(accelerator.run, network)
    assert report.total_cycles > 0


def test_tune_sweep_cache_speedup(benchmark):
    """Memoized sweeps must beat from-scratch sweeps by >= 2x.

    The acceptance workload: ``tune_for_network`` on 1.0-SqNxt-23 (a
    2x2 array-size x RF-size sweep).  The cache dedupes the network's
    repeated layer shapes within each point and shares WS entries
    across the RF axis; the results must be bit-identical either way.
    Both modes run on one worker so the ratio measures the cache, not
    the scheduler.
    """
    network = squeezenext()

    def cached():
        return tune_for_network(network,
                                engine=SweepEngine(max_workers=1))

    def uncached():
        return tune_for_network(
            network, engine=SweepEngine(max_workers=1, use_cache=False))

    cached(), uncached()  # warm-up
    t_uncached = best_of(uncached, 7)
    t_cached = best_of(cached, 7)

    best_cached = benchmark(cached)
    best_uncached = uncached()
    assert best_cached.label == best_uncached.label
    assert best_cached.report == best_uncached.report
    assert best_cached.report.cache_stats is not None

    speedup = t_uncached / t_cached
    assert speedup >= 2.0, (
        f"cache speedup {speedup:.2f}x (uncached {t_uncached * 1e3:.1f}ms, "
        f"cached {t_cached * 1e3:.1f}ms) below the 2x floor")


def test_model_zoo_build(benchmark):
    """Graph construction + shape inference for the heaviest model."""
    network = benchmark(build_model, "SqueezeNext")
    assert len(network) > 100


def test_conv_forward_backward(benchmark):
    conv = Conv2D(16, 32, (3, 3), padding=(1, 1),
                  rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(8, 16, 16, 16))

    def step():
        out = conv.forward(x)
        conv.zero_grad()
        conv.backward(np.ones_like(out))
        return out

    out = benchmark(step)
    assert out.shape == (8, 32, 16, 16)


def test_training_epoch(benchmark):
    b = NetworkBuilder("bench", TensorShape(3, 16, 16))
    b.conv("c1", 8, kernel_size=3, padding=1, stride=2)
    b.conv("c2", 16, kernel_size=3, padding=1, stride=2)
    b.global_avg_pool("gap")
    b.dense("fc", 4, activation="identity")
    net = GraphNetwork(b.build(), rng=np.random.default_rng(2))
    trainer = Trainer(net, SGD(net.parameters(), lr=0.05), batch_size=32)
    dataset = make_shapes_dataset(128, image_size=16, num_classes=4, seed=3)

    stats = benchmark(trainer.train_epoch, dataset)
    assert stats.train_loss > 0
