"""Dataflow model interface and shared OS block geometry.

A dataflow model answers one question: given a convolution workload and a
machine configuration, how many PE-array cycles does the layer take and
what on-chip traffic does it generate?  DRAM behaviour is *not* the
dataflow's business — the simulator combines the dataflow's compute time
with the DRAM model under double buffering.  The OS output-block geometry
lives here because both the OS cycle model and the DRAM traffic model
need the identical tiling.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List

from repro.accel.config import AcceleratorConfig
from repro.accel.report import DataflowPerf
from repro.accel.workload import ConvWorkload


class DataflowModel(abc.ABC):
    """Analytical performance model of one dataflow style."""

    #: Short tag used in reports ("WS" / "OS").
    name: str = "?"

    @abc.abstractmethod
    def simulate(self, workload: ConvWorkload,
                 config: AcceleratorConfig) -> DataflowPerf:
        """Predict compute cycles and on-chip access counts for one layer."""

    @staticmethod
    def _ceil_div(a: int, b: int) -> int:
        if b <= 0:
            raise ValueError("division by non-positive tile size")
        return -(-a // b)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def block_sizes(extent: int, tile: int) -> list:
    """Sizes of the tiles covering ``extent`` in steps of ``tile``.

    >>> block_sizes(55, 32)
    [32, 23]
    """
    if extent <= 0 or tile <= 0:
        raise ValueError("extent and tile must be positive")
    full, rem = divmod(extent, tile)
    return [tile] * full + ([rem] if rem else [])


@dataclass(frozen=True)
class OsBlock:
    """One distinct output-block shape in the OS spatial tiling.

    ``count`` is how many blocks of this shape cover the plane (per
    group), ``pack`` how many output channels sit side by side on the
    array, and ``passes`` how many filter groups iterate over the block
    (each pass re-reads the block's input channels).
    """

    bh: int
    bw: int
    count: int
    pack: int
    passes: int
    in_block_elems: int  # input halo pixels per input channel

    def out_elems(self) -> int:
        return self.bh * self.bw


def os_blocks(workload: ConvWorkload,
              config: AcceleratorConfig) -> List[OsBlock]:
    """The OS dataflow's output-plane tiling for one group.

    The output plane tiles into at most four distinct block shapes, in
    this order: full, right edge, bottom edge, corner.  Their counts
    follow from ``divmod`` of each extent by its tile — the same shapes,
    counts and order as walking the :func:`block_sizes` heights x widths
    grid row by row.
    """
    rows, cols = config.array_rows, config.array_cols
    out_h, out_w = workload.out_h, workload.out_w
    tile_h, tile_w = min(rows, out_h), min(cols, out_w)
    full_h, edge_h = divmod(out_h, tile_h)
    full_w, edge_w = divmod(out_w, tile_w)
    shapes = [(tile_h, tile_w, full_h * full_w)]
    if edge_w:
        shapes.append((tile_h, edge_w, full_h))
    if edge_h:
        shapes.append((edge_h, tile_w, full_w))
        if edge_w:
            shapes.append((edge_h, edge_w, 1))
    k = workload.group_out_channels
    group = config.os_group_size
    stride_h, stride_w = workload.stride_h, workload.stride_w
    kernel_h, kernel_w = workload.kernel_h, workload.kernel_w
    blocks = []
    for bh, bw, count in shapes:
        pack = max(1, rows // bh) * max(1, cols // bw)
        blocks.append(OsBlock(
            bh=bh, bw=bw, count=count, pack=pack,
            passes=_ceil_div(k, group * pack),
            in_block_elems=(((bh - 1) * stride_h + kernel_h)
                            * ((bw - 1) * stride_w + kernel_w)),
        ))
    return blocks
