"""Property-based tests (hypothesis) on the accelerator models.

These pin the physical invariants any performance model must satisfy,
over randomly drawn convolution geometries and machine configurations:
throughput never exceeds peak, hybrid selection is optimal, traffic and
energy are non-negative and at least one-pass, and utilization is
bounded.  The OS model's closed-form tiling and pass costs are pinned
to the enumerating loops they replace.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    AcceleratorSimulator,
    OutputStationaryModel,
    WeightStationaryModel,
    squeezelerator,
)
from repro.accel.dataflows.base import OsBlock, block_sizes, os_blocks
from repro.accel.dram import layer_traffic
from repro.accel.workload import ConvWorkload
from repro.graph import LayerCategory


@st.composite
def workloads(draw):
    """Random but valid convolution geometries."""
    kernel = draw(st.sampled_from([(1, 1), (3, 3), (5, 5), (3, 1), (1, 3),
                                   (7, 7)]))
    stride = draw(st.sampled_from([1, 2]))
    out_h = draw(st.integers(min_value=1, max_value=56))
    out_w = draw(st.integers(min_value=1, max_value=56))
    in_h = (out_h - 1) * stride + kernel[0]
    in_w = (out_w - 1) * stride + kernel[1]
    depthwise = draw(st.booleans())
    if depthwise:
        channels = draw(st.integers(min_value=1, max_value=256))
        in_c = out_c = groups = channels
    else:
        in_c = draw(st.integers(min_value=1, max_value=256))
        out_c = draw(st.integers(min_value=1, max_value=256))
        groups = 1
    return ConvWorkload(
        name="rand", category=LayerCategory.SPATIAL,
        in_channels=in_c, out_channels=out_c,
        kernel_h=kernel[0], kernel_w=kernel[1],
        stride_h=stride, stride_w=stride,
        in_h=in_h, in_w=in_w, out_h=out_h, out_w=out_w,
        groups=groups,
    )


@st.composite
def configs(draw):
    array = draw(st.sampled_from([8, 16, 32]))
    rf = draw(st.sampled_from([4, 8, 16]))
    sparsity = draw(st.sampled_from([0.0, 0.2, 0.4]))
    config = squeezelerator(array, rf)
    return dataclasses.replace(config, weight_sparsity=sparsity)


@settings(max_examples=60, deadline=None)
@given(workload=workloads(), config=configs())
def test_ws_throughput_never_exceeds_peak(workload, config):
    perf = WeightStationaryModel().simulate(workload, config)
    assert perf.compute_cycles > 0
    assert workload.macs / perf.compute_cycles <= config.num_pes + 1e-9


@settings(max_examples=60, deadline=None)
@given(workload=workloads(), config=configs())
def test_os_throughput_never_exceeds_peak(workload, config):
    perf = OutputStationaryModel().simulate(workload, config)
    assert perf.compute_cycles > 0
    effective_macs = workload.macs * (1 - config.weight_sparsity)
    assert effective_macs / perf.compute_cycles <= config.num_pes + 1e-9


@settings(max_examples=60, deadline=None)
@given(workload=workloads(), config=configs())
def test_access_counts_non_negative(workload, config):
    for model in (WeightStationaryModel(), OutputStationaryModel()):
        accesses = model.simulate(workload, config).accesses
        assert accesses.macs >= 0
        assert accesses.rf_accesses >= 0
        assert accesses.array_transfers >= 0
        assert accesses.gb_accesses >= 0


@settings(max_examples=60, deadline=None)
@given(workload=workloads(), config=configs())
def test_dram_traffic_at_least_one_pass(workload, config):
    """Every operand must cross DRAM at least once (batch 1, cold)."""
    for dataflow in ("WS", "OS"):
        traffic = layer_traffic(workload, dataflow, config)
        assert traffic.weight_elems >= workload.weight_elems
        assert traffic.input_elems > 0
        if workload.stride_h == workload.stride_w == 1:
            # Strided convolutions may legitimately skip input pixels;
            # dense ones must fetch the whole map at least once.
            assert traffic.input_elems >= workload.input_elems * 0.999
        assert traffic.output_elems == workload.output_elems


@settings(max_examples=40, deadline=None)
@given(workload=workloads(), config=configs())
def test_hybrid_layer_choice_is_min(workload, config):
    simulator = AcceleratorSimulator(config)
    options = simulator.dataflow_options(workload)
    chosen = simulator.simulate_layer(workload)
    assert chosen.total_cycles == min(
        o.total_cycles for o in options.values())


@settings(max_examples=40, deadline=None)
@given(workload=workloads(), config=configs())
def test_layer_report_consistency(workload, config):
    report = AcceleratorSimulator(config).simulate_layer(workload)
    assert report.total_cycles >= report.compute_cycles
    assert report.total_cycles >= report.dram_cycles
    assert report.energy > 0
    assert report.macs == workload.macs


@settings(max_examples=60, deadline=None)
@given(workload=workloads(), config=configs(),
       batch=st.sampled_from([1, 2, 4, 16, 64]))
def test_dram_traffic_non_negative_any_batch(workload, config, batch):
    """Per-image traffic stays non-negative at every batch size, and the
    batch amortizes at most the single resident weight fetch."""
    config = dataclasses.replace(config, batch_size=batch)
    batch1 = dataclasses.replace(config, batch_size=1)
    for dataflow in ("WS", "OS"):
        traffic = layer_traffic(workload, dataflow, config)
        assert traffic.weight_elems >= 0
        assert traffic.input_elems >= 0
        assert traffic.output_elems >= 0
        cold = layer_traffic(workload, dataflow, batch1)
        restreamed = cold.weight_elems - workload.weight_elems
        assert traffic.weight_elems >= restreamed - 1e-6
        assert traffic.weight_elems <= cold.weight_elems + 1e-6


@settings(max_examples=40, deadline=None)
@given(workload=workloads(), config=configs())
def test_hybrid_no_worse_than_either_dataflow(workload, config):
    """The HYBRID pick's total cycles never exceed min(WS, OS)."""
    simulator = AcceleratorSimulator(config)
    chosen = simulator.simulate_layer(workload)
    options = simulator.dataflow_options(workload)
    assert chosen.total_cycles <= options["WS"].total_cycles + 1e-9
    if "OS" in options:
        assert chosen.total_cycles <= options["OS"].total_cycles + 1e-9


@settings(max_examples=40, deadline=None)
@given(workload=workloads(), config=configs())
def test_layer_cache_equivalence(workload, config):
    """Memoized layer reports are bit-identical to from-scratch ones."""
    from repro.accel import SimulationCache

    cold = AcceleratorSimulator(config, use_cache=False).simulate_layer(
        workload)
    warm = AcceleratorSimulator(config, cache=SimulationCache())
    assert warm.simulate_layer(workload) == cold  # miss path
    assert warm.simulate_layer(workload) == cold  # hit path


@settings(max_examples=30, deadline=None)
@given(workload=workloads())
def test_os_sparsity_monotone_in_cycles(workload):
    """More weight sparsity never slows the OS dataflow down."""
    model = OutputStationaryModel()
    previous = float("inf")
    for sparsity in (0.0, 0.2, 0.4, 0.6):
        config = dataclasses.replace(squeezelerator(32),
                                     weight_sparsity=sparsity)
        cycles = model.simulate(workload, config).compute_cycles
        assert cycles <= previous + 1e-9
        previous = cycles


@settings(max_examples=30, deadline=None)
@given(workload=workloads())
def test_os_rf_monotone_in_cycles(workload):
    """A bigger register file never meaningfully slows OS down.

    Not strictly monotone: the final pass's remainder channel group
    (and hence the exposed terminal drain) depends on the RF size, so
    boundary rounding can cost a few hundred cycles either way.
    """
    model = OutputStationaryModel()
    previous = float("inf")
    for rf in (4, 8, 16, 32):
        cycles = model.simulate(workload, squeezelerator(32, rf)).compute_cycles
        assert cycles <= previous * 1.02 + 1024
        previous = min(previous, cycles)


def enumerated_os_blocks(workload, config):
    """The OS tiling by walking the heights x widths grid: the oracle
    for the closed-form :func:`os_blocks`."""
    rows, cols = config.array_rows, config.array_cols
    heights = block_sizes(workload.out_h, min(rows, workload.out_h))
    widths = block_sizes(workload.out_w, min(cols, workload.out_w))
    shapes = {}
    for bh in heights:
        for bw in widths:
            shapes[(bh, bw)] = shapes.get((bh, bw), 0) + 1
    blocks = []
    for (bh, bw), count in shapes.items():
        pack = max(1, rows // bh) * max(1, cols // bw)
        passes = -(-workload.group_out_channels // (config.os_group_size
                                                    * pack))
        in_h = (bh - 1) * workload.stride_h + workload.kernel_h
        in_w = (bw - 1) * workload.stride_w + workload.kernel_w
        blocks.append(OsBlock(bh=bh, bw=bw, count=count, pack=pack,
                              passes=passes, in_block_elems=in_h * in_w))
    return blocks


@st.composite
def array_configs(draw):
    """Arbitrary (also non-square) PE arrays and register files."""
    return dataclasses.replace(
        squeezelerator(),
        array_rows=draw(st.integers(min_value=1, max_value=64)),
        array_cols=draw(st.integers(min_value=1, max_value=64)),
        rf_entries_per_pe=draw(st.integers(min_value=3, max_value=40)))


@settings(max_examples=300, deadline=None)
@given(workload=workloads(), config=array_configs())
def test_closed_form_os_tiling_equals_enumeration(workload, config):
    """Same blocks, same fields, same order (the OS model sums in it)."""
    assert os_blocks(workload, config) == enumerated_os_blocks(workload,
                                                               config)


def looped_block_cost(workload, config, block):
    """The OS per-block sides with one full cost computation per filter
    pass: the oracle for the model's full-pass/remainder split."""
    taps = workload.filter_taps
    density = 1.0 - config.weight_sparsity
    c = workload.group_in_channels
    preload = -(-block.in_block_elems // config.preload_elems_per_cycle)
    depth = max(2, (config.preload_buffer_bytes // config.bytes_per_element)
                // max(1, block.in_block_elems))
    compute_side = preload_side = drain = 0.0
    remaining = workload.group_out_channels
    for _ in range(block.passes):
        kp = min(config.os_group_size * block.pack, remaining)
        remaining -= kp
        lanes = min(block.pack, config.broadcast_lanes)
        broadcast = -(-kp // lanes) * taps * density
        drain = -(-(kp * block.bh * block.bw)
                  // config.drain_elems_per_cycle)
        compute_side += c * broadcast + drain
        preload_side += c * preload + max(0.0, drain - (depth - 1) * preload)
    return compute_side, preload_side, float(drain)


@settings(max_examples=200, deadline=None)
@given(workload=workloads(), config=array_configs())
def test_os_pass_costs_bit_identical_to_per_pass_loop(workload, config):
    model = OutputStationaryModel()
    for block in os_blocks(workload, config):
        *sides, _ = model._block_cost(workload, config, block)
        assert tuple(sides) == looped_block_cost(workload, config, block)
