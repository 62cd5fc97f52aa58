"""Output-stationary (OS) dataflow model.

The OS engine is ShiDianNao-like (paper §3.2 and §4.1.2): the PE array
maps a 2-D block of one output feature map.  Per output block the engine
iterates input channels; for each input channel a block of input pixels
is preloaded (then shifted between neighbouring PEs), and the stream
buffer broadcasts weights to the PEs.  Partial sums stay in each PE's
register file until the block completes, then drain to the global buffer
through the bottom array row — the paper notes this drain "takes
additional processing time", so it is charged explicitly.

Two of the paper's §4.1.2 optimizations are modelled:

* **Input reuse across filters** — a PE accumulates partial sums for
  ``os_group_size`` output channels at once (bounded by the register
  file), so each preloaded input block is reused across that many
  filters.  This is where the RF 8 -> 16 tune-up pays off.
* **Zero-weight skipping** — the stream buffer broadcasts only non-zero
  weights, cutting broadcast cycles (and MAC energy) by the weight
  sparsity (40% in the paper's experiments).

When the output plane is smaller than the PE array, several output
channels pack side by side onto the array, amortizing input preloads and
drains; the stream buffer can feed at most ``broadcast_lanes`` distinct
weights per cycle, so packed channels beyond that advance sequentially —
which is why OS utilization still degrades on late, small-plane layers
(Figure 1's right-hand tail).
"""

from __future__ import annotations

from typing import Tuple

from repro.accel.config import AcceleratorConfig
from repro.accel.dataflows.base import DataflowModel, OsBlock, os_blocks
from repro.accel.report import AccessCounts, DataflowPerf
from repro.accel.workload import ConvWorkload


class OutputStationaryModel(DataflowModel):
    """Analytical model of the reference OS architecture."""

    name = "OS"

    def simulate(self, workload: ConvWorkload,
                 config: AcceleratorConfig) -> DataflowPerf:
        # The compute/drain chain and the preload engine run as a
        # two-stage pipeline across the whole layer (the next input
        # block prefetches across pass and block boundaries), so the
        # layer completes when the busier engine does — plus the final
        # drain, which nothing can hide.  The single cold preload at
        # layer start is absorbed into the DRAM latency term.
        compute_side = 0.0
        preload_side = 0.0
        last_drain = 0.0
        first_preload = None
        accesses = AccessCounts()
        for block in os_blocks(workload, config):
            count = block.count * workload.groups
            block_compute, block_preload, block_drain, block_accesses = (
                self._block_cost(workload, config, block))
            if first_preload is None:
                first_preload = self._ceil_div(
                    block.in_block_elems, config.preload_elems_per_cycle)
            compute_side += count * block_compute
            preload_side += count * block_preload
            last_drain = block_drain
            accesses = accesses + block_accesses.scaled(count)
        # The first block's preload is pre-staged during the layer's DMA
        # startup window, so the preload engine's critical path excludes
        # it.
        preload_side = max(0.0, preload_side - (first_preload or 0))
        cycles = max(compute_side, preload_side + last_drain)
        return DataflowPerf(self.name, cycles, accesses)

    def _block_cost(
        self, workload: ConvWorkload, config: AcceleratorConfig,
        block: OsBlock,
    ) -> Tuple[float, float, float, AccessCounts]:
        """Engine-side costs and accesses of one block of one group.

        Returns ``(compute_side, preload_side, final_drain, accesses)``
        where the sides are the busy cycles of the PE-array+drain chain
        and of the preload engine respectively.
        """
        taps = workload.filter_taps
        density = 1.0 - config.weight_sparsity
        k = workload.group_out_channels
        c = workload.group_in_channels
        channels_per_pass = config.os_group_size * block.pack
        preload = self._ceil_div(block.in_block_elems,
                                 config.preload_elems_per_cycle)
        # The preload FIFO holds however many input blocks fit in the
        # staging buffer (at least double-buffered).  In a preload-bound
        # pass the prefetcher has no lead, so a pass-end drain stalls it
        # once the (depth - 1) free slots fill — that exposed remainder
        # lands on the preload side.
        buffer_elems = (config.preload_buffer_bytes
                        // config.bytes_per_element)
        depth = max(2, buffer_elems // max(1, block.in_block_elems))

        # The stream buffer broadcasts `broadcast_lanes` distinct
        # weights per cycle, one per packed sub-tile; beyond that,
        # packed output channels advance sequentially and packing only
        # amortizes input preloads and drains.
        lanes = min(block.pack, config.broadcast_lanes)

        def pass_cost(kp: int) -> Tuple[float, float, float]:
            broadcast = self._ceil_div(kp, lanes) * taps * density
            drain = self._ceil_div(kp * block.bh * block.bw,
                                   config.drain_elems_per_cycle)
            stalled_drain = max(0.0, drain - (depth - 1) * preload)
            return c * broadcast + drain, c * preload + stalled_drain, drain

        # Every pass but the last maps a full `channels_per_pass` filter
        # group; the last maps the remainder.  The sides still accumulate
        # pass by pass: n * x is not bit-identical to adding x n times.
        # (``k`` is positive, so there is always at least one pass.)
        compute_side = 0.0
        preload_side = 0.0
        if block.passes > 1:
            full_compute, full_preload, _ = pass_cost(channels_per_pass)
            for _ in range(block.passes - 1):
                compute_side += full_compute
                preload_side += full_preload
        last_compute, last_preload, drain = pass_cost(
            k - (block.passes - 1) * channels_per_pass)
        compute_side += last_compute
        preload_side += last_preload

        macs = c * k * taps * block.bh * block.bw * density
        accesses = AccessCounts(
            macs=macs,
            # Each issued MAC accumulates into its partial-sum register
            # in place (one RF event per MAC).
            rf_accesses=macs,
            # Input pixels shift between neighbouring PEs each tap.
            array_transfers=macs,
            gb_accesses=(
                float(c * block.passes * block.in_block_elems)  # preloads
                + c * k * taps * density                # weight broadcasts
                + float(k * block.bh * block.bw)        # output drain
            ),
        )
        return compute_side, preload_side, float(drain), accesses
