"""Ahead-of-time compilation of a float or integer inference plan.

:func:`compile_plan` lowers the interpreted step list of an
:class:`~repro.nn.infer.InferencePlan` or a
:class:`~repro.nn.quant.QuantizedInferencePlan` into a
:class:`CompiledPlan`: one executable program per ``(model,
batch_size)`` with every byte offset resolved at compile time.  The same
separation of trace-time from run-time that ``repro.accel.schedule``
applies to the simulator (static per-layer programs) is applied here to
the nn runtime.  Both numeric domains go through one lowering pass —
classify, shapes and liveness, static offsets, bind:

* **Static arena** — a single flat block sized by a liveness walk over
  the step list; every activation, im2col scratch and padded-input
  buffer is a pre-sliced view at a fixed offset.  The hot path performs
  zero shape-keyed dict lookups and zero ``acquire``/``release`` calls.
* **Pre-bound kernels** — each step becomes a closure over its input
  views, weight views, and output view.  Padded inputs live in
  recycled regions whose borders are refilled per run; ``as_strided``
  window views over them are built once at bind time.
* **Kernel specialization** — pointwise (1x1/s1/p0) convolutions skip
  the im2col gather entirely (the GEMM reads a reshaped view of the
  input), depthwise convolutions lower to the batched im2col GEMM
  ("dw-gemm"), and ``MaxPool2D`` lowers to a tap-loop of
  ``np.maximum`` over the window view (exact: max is an exact
  reduction).
* **Join write-through** (float only) — a convolution or pooling step
  whose only consumer is a ``concat`` writes directly into its channel
  slice of the concat buffer; the copy in ``concat_channels``
  disappears.  The first branch of an ``add`` writes into the sum
  buffer likewise.

The numeric domain decides only three things.  Buffer dtypes: float64
throughout, or narrow integer activations (int16, int8 at ``bits<=8``)
plus float64 GEMM accumulators.  The epilogue after the shared GEMM,
max-pool and dense kernels: bias + ReLU, or the interpreted integer
plan's own ``requantize_into``.  And the concat/add join kernels, with
per-sample scale tracking for integer activations.

Numerics: float kernels perform the same floating-point operations in
the same order as the interpreted plan (dw-gemm reorders the depthwise
reduction to ~1e-17), always within the 1e-12 equivalence bar enforced
by the test suite.  Integer GEMMs accumulate exact integers in float64
containers (bounded by the plan's ``_check_exact``) and share the
epilogue code object, so integer outputs are bit-identical to the
interpreted integer plan.

Thread safety: a :class:`CompiledPlan` may be shared across threads
(the program metadata and weight views are immutable).  Each thread
binds one static block, sized for the largest compiled program, and
every batch program it runs is a set of views into that block: a
program refills every byte it reads during a run, so programs take
turns in the block safely.  The interpreted plan is only the
compiler's input; nothing falls back to it at run time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.nn import layers
from repro.nn.functional import conv_output_plane
from repro.nn.infer import InferencePlan, _ModuleStep
from repro.nn.module import Identity, no_grad
from repro.nn.quant import (
    QuantizedIdentity,
    QuantizedInferencePlan,
    QuantizedMaxPool,
    QuantizedReLU,
    QuantizedReshape,
    dequantize_batch,
    quantize_batch,
)

__all__ = ["CompiledPlan", "CompiledProgram", "compile_plan",
           "compile_quantized_plan"]

#: Static-arena offsets are aligned so every float64 view is at least
#: cache-line aligned, matching the shm weight packing discipline.
ALIGN = 64

_F64 = np.dtype(np.float64)

#: Integer kernels whose output keeps the input's per-sample scales
#: (aliases keep them too, being views).
_SCALE_PRESERVING = ("maxpool", "relu")


def _align(nbytes: int) -> int:
    return (nbytes + ALIGN - 1) // ALIGN * ALIGN


# -- static allocator --------------------------------------------------------


class _StaticAllocator:
    """First-fit free-hole allocator producing deterministic offsets.

    Drives the compile-time layout: buffers are allocated at their step
    of first use and their bytes return to the hole list at their last
    use, so the block's high-water mark tracks the widest liveness cut
    (same objective as the interpreted planner's arena, but resolved
    once instead of per run).
    """

    def __init__(self) -> None:
        self._holes: List[List[int]] = []  # sorted [offset, nbytes]
        self.high_water = 0

    def alloc(self, nbytes: int) -> int:
        nbytes = _align(max(nbytes, 1))
        for hole in self._holes:
            if hole[1] >= nbytes:
                offset = hole[0]
                hole[0] += nbytes
                hole[1] -= nbytes
                if hole[1] == 0:
                    self._holes.remove(hole)
                return offset
        offset = self.high_water
        self.high_water += nbytes
        return offset

    def free(self, offset: int, nbytes: int) -> None:
        nbytes = _align(max(nbytes, 1))
        self._holes.append([offset, nbytes])
        self._holes.sort()
        merged: List[List[int]] = []
        for hole in self._holes:
            if merged and merged[-1][0] + merged[-1][1] == hole[0]:
                merged[-1][1] += hole[1]
            else:
                merged.append(hole)
        # A hole touching the high-water mark shrinks the block.
        if merged and merged[-1][0] + merged[-1][1] == self.high_water:
            self.high_water = merged[-1][0]
            merged.pop()
        self._holes = merged


# -- compile-time IR ---------------------------------------------------------


@dataclass
class _Buf:
    """One region of the static arena.

    ``dtype`` sizes the region: float programs allocate everything as
    float64; integer programs store activations, padded inputs and
    im2col scratch in the plan's narrow dtype and only the GEMM
    accumulators in float64, so their layout lands ~4x (8x) smaller.
    """

    shape: Tuple[int, ...]
    alloc_at: int
    free_at: int
    offset: int = -1
    dtype: np.dtype = _F64

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize


@dataclass
class _Value:
    """Where a step's output lives.

    ``mode`` is one of ``static`` (a whole buffer), ``slice`` (a channel
    slice of a join buffer), ``alias`` (a reshape view of another
    step's value) or ``dynamic`` (a float module output held in a
    run-time slot).  ``scale`` is the step owning the per-sample scale
    array of integer levels (-1 for float values).
    """

    mode: str
    shape: Tuple[int, ...]
    buf: int = -1
    channels: Tuple[int, int] = (0, 0)
    base: int = -1  # alias: producer step index
    scale: int = -1


@dataclass
class _StepIR:
    """Compile-time record for one plan step."""

    index: int
    name: str
    # input | conv | dense | maxpool | relu | concat | add | alias | module
    kind: str
    label: str
    inputs: Tuple[int, ...]  # producer step indices
    value: Optional[_Value] = None
    op: object = None
    strategy: str = ""
    write_through: bool = False
    # conv/maxpool lowering details
    padded_buf: int = -1
    padded_shape: Tuple[int, ...] = ()
    scratch_buf: int = -1
    stage_buf: int = -1
    acc_buf: int = -1  # integer GEMM/add accumulator (float64)
    # concat: (input position, channel range) for inputs needing a copy
    copy_slices: Tuple[Tuple[int, Tuple[int, int]], ...] = ()
    # add: input position that already wrote into the output buffer
    inplace_src: int = -1
    module: Optional[_ModuleStep] = None

    def describe(self) -> str:
        tag = self.label + (f"[{self.strategy}]" if self.strategy else "")
        if self.write_through:
            tag += "->join"
        return f"{self.name:<24} {tag}"


# -- compiled program (one batch size) ---------------------------------------


class _BoundProgram:
    """A program bound to views of one thread's static block."""

    __slots__ = ("block", "ops", "names", "labels", "load", "output_fn",
                 "batch")

    def execute(self, x: np.ndarray,
                scales: Optional[np.ndarray] = None) -> np.ndarray:
        """Run on ``x`` (or on integer levels ``x`` with ``scales``)."""
        self.load(x, scales)
        if obs.is_enabled():
            return self._execute_traced()
        for op in self.ops:
            op()
        return self.output_fn()

    def _execute_traced(self) -> np.ndarray:
        with obs.span("infer.compiled", batch=self.batch,
                      steps=len(self.ops)):
            for op, name, label in zip(self.ops, self.names, self.labels):
                with obs.span("infer.compiled_step", step=name, kind=label):
                    op()
            return self.output_fn()


@dataclass
class _BindEnv:
    """One bind's per-thread state, handed to the step binders."""

    views: List[np.ndarray]
    static_view: Callable[[int], Optional[np.ndarray]]
    getter: Callable[[int], Callable[[], np.ndarray]]
    slots: List[Optional[np.ndarray]]
    scales: List[Optional[np.ndarray]]


class CompiledProgram:
    """Immutable compiled program for one batch size.

    Holds the step IR and buffer table; :meth:`bind` lays the kernel
    closures over a caller-owned block of at least ``total_bytes``.
    ``bound_replicas`` counts those bindings (one per thread that ran
    the program).  ``bits`` is ``None`` for a float64 program, else the
    integer plan's activation width.  ``input_shape`` and
    ``output_shape`` are per sample (batch excluded).
    """

    def __init__(self, steps: List[_StepIR], bufs: List[_Buf],
                 total_bytes: int, batch: int,
                 input_shape: Tuple[int, int, int],
                 bits: Optional[int]) -> None:
        self._steps = steps
        self._bufs = bufs
        self.total_bytes = total_bytes
        self.batch = batch
        self.input_shape = input_shape
        self.bits = bits
        self._bind_lock = threading.Lock()
        self._replicas = 0

    # -- introspection -------------------------------------------------------

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self._steps)

    @property
    def strategies(self) -> Dict[str, str]:
        return {s.name: s.strategy + ("->join" if s.write_through else "")
                for s in self._steps}

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return tuple(self._steps[-1].value.shape[1:])

    @property
    def bound_replicas(self) -> int:
        return self._replicas

    # -- binding -------------------------------------------------------------

    def bind(self, block: np.ndarray) -> _BoundProgram:
        """Kernel closures over views of ``block`` (one thread's block)."""
        with self._bind_lock:
            self._replicas += 1
        obs.count("infer.compiled.bind")
        views: List[np.ndarray] = []
        for buf in self._bufs:
            raw = block[buf.offset:buf.offset + buf.nbytes]
            views.append(raw.view(buf.dtype).reshape(buf.shape))
        slots: List[Optional[np.ndarray]] = [None] * len(self._steps)
        # Per-sample scale arrays of integer values; scale-preserving
        # steps share their producer's array.
        scales: List[Optional[np.ndarray]] = []
        for step in self._steps:
            owner = step.value.scale
            scales.append(np.empty(self.batch) if owner == step.index
                          else scales[owner] if owner >= 0 else None)

        def static_view(idx: int) -> Optional[np.ndarray]:
            value = self._steps[idx].value
            if value.mode == "static":
                return views[value.buf]
            if value.mode == "slice":
                c0, c1 = value.channels
                return views[value.buf][:, c0:c1]
            if value.mode == "alias":
                base = static_view(value.base)
                if base is None:
                    return None
                view = base.reshape(value.shape)
                if not np.shares_memory(view, base):  # pragma: no cover
                    return None
                return view
            return None

        def getter(idx: int) -> Callable[[], np.ndarray]:
            sv = static_view(idx)
            if sv is not None:
                return lambda: sv
            value = self._steps[idx].value
            if value.mode == "alias":
                inner = getter(value.base)
                shape = value.shape
                return lambda: inner().reshape(shape)
            return lambda: slots[idx]

        env = _BindEnv(views, static_view, getter, slots, scales)
        prog = _BoundProgram()
        prog.block = block
        prog.batch = self.batch
        prog.ops, prog.names, prog.labels = [], [], []
        for step in self._steps:
            if step.kind in ("input", "alias"):
                continue
            prog.ops.append(self._bind_step(step, env))
            prog.names.append(step.name)
            prog.labels.append(step.label + (f"[{step.strategy}]"
                                             if step.strategy else ""))
        prog.load = self._loader(env)
        prog.output_fn = self._output(env, block)
        return prog

    def _loader(self, env: _BindEnv):
        """Input writer: copy floats, or quantize them (or take levels)."""
        idx = next(s.index for s in self._steps if s.kind == "input")
        view = env.views[self._steps[idx].value.buf]
        if self.bits is None:
            return lambda x, scales: np.copyto(view, x)
        in_scales = env.scales[idx]
        bits = self.bits

        def load_levels(x: np.ndarray, scales: Optional[np.ndarray]) -> None:
            if scales is None:
                x, scales = quantize_batch(x, bits)
            np.copyto(view, x)
            in_scales[:] = scales

        return load_levels

    def _output(self, env: _BindEnv, block: np.ndarray):
        out_idx = len(self._steps) - 1
        out_static = env.static_view(out_idx)
        if out_static is not None:
            out_scales = env.scales[out_idx]
            if out_scales is not None:
                return lambda: dequantize_batch(out_static, out_scales)
            return out_static.copy
        out_get = env.getter(out_idx)

        def output_fn() -> np.ndarray:
            out = out_get()
            root = out
            while isinstance(root.base, np.ndarray):
                root = root.base
            if root is block or (root.base is not None
                                 and root.base is block):
                return out.copy()
            return out

        return output_fn

    # -- per-step kernel binding --------------------------------------------

    def _bind_step(self, step: _StepIR, env: _BindEnv) -> Callable[[], None]:
        if step.kind == "conv":
            return self._bind_conv(step, env)
        if step.kind == "maxpool":
            return self._bind_maxpool(step, env)
        if step.kind == "dense":
            return self._bind_dense(step, env)
        if step.kind == "relu":
            return self._bind_relu(step, env)
        if step.kind == "concat":
            return self._bind_concat(step, env)
        if step.kind == "add":
            return self._bind_add(step, env)
        # module fallback: float in, float out (integer levels dequantize)
        get_in = env.getter(step.inputs[0])
        in_scales = env.scales[step.inputs[0]]
        module = step.module.clone()
        slots = env.slots
        idx = step.index
        if in_scales is not None:
            def run_module_levels() -> None:
                slots[idx] = module(dequantize_batch(get_in(), in_scales))

            return run_module_levels

        def run_module() -> None:
            slots[idx] = module(get_in())

        return run_module

    def _input(self, step: _StepIR, env: _BindEnv):
        """(input view, per-run stage fill or None, input scales or None).

        A float module output feeding a static kernel is staged into a
        static buffer each run — copied, or quantized per sample in an
        integer program (the interpreted plan's ``as_quantized``).
        """
        if step.stage_buf < 0:
            return (env.static_view(step.inputs[0]), None,
                    env.scales[step.inputs[0]])
        stage = env.views[step.stage_buf]
        get_in = env.getter(step.inputs[0])
        if self.bits is None:
            def stage_copy() -> None:
                np.copyto(stage, get_in())

            return stage, stage_copy, None
        bits = self.bits
        sx = (env.scales[step.index] if step.kind in _SCALE_PRESERVING
              else np.empty(self.batch))

        def stage_quantize() -> None:
            q, s = quantize_batch(get_in(), bits)
            np.copyto(stage, q)
            sx[:] = s

        return stage, stage_quantize, sx

    def _epilogue(self, step: _StepIR, env: _BindEnv, gemm_out: np.ndarray,
                  out: np.ndarray, sx: Optional[np.ndarray], bias):
        """After the GEMM: bias + ReLU (float) or requantize (integer)."""
        relu = step.op.relu
        if self.bits is None:
            def bias_relu() -> None:
                if bias is not None:
                    np.add(gemm_out, bias, out=gemm_out)
                if relu:
                    np.maximum(gemm_out, 0.0, out=gemm_out)

            return bias_relu
        acc = env.views[step.acc_buf]
        sy = env.scales[step.index]
        requantize_into = step.op.requantize_into

        def requantize() -> None:
            sy[:] = requantize_into(acc, sx, out)

        return requantize

    @staticmethod
    def _padded(views, step: _StepIR, in_view: np.ndarray, pad_value):
        """(window source, per-run border fill + interior copy)."""
        padded = views[step.padded_buf]
        ph = (step.padded_shape[2] - in_view.shape[2]) // 2
        pw = (step.padded_shape[3] - in_view.shape[3]) // 2
        interior = padded[:, :, ph:padded.shape[2] - ph,
                          pw:padded.shape[3] - pw]
        borders = []
        if ph:
            borders.append(padded[:, :, :ph, :])
            borders.append(padded[:, :, padded.shape[2] - ph:, :])
        if pw:
            borders.append(padded[:, :, ph:padded.shape[2] - ph, :pw])
            borders.append(
                padded[:, :, ph:padded.shape[2] - ph,
                       padded.shape[3] - pw:])

        def refill() -> None:
            for b in borders:
                b.fill(pad_value)
            np.copyto(interior, in_view)

        return padded, refill

    @staticmethod
    def _windows(src: np.ndarray, kernel, stride, out_plane) -> np.ndarray:
        kh, kw = kernel
        sh, sw = stride
        oh, ow = out_plane
        n, c = src.shape[:2]
        shape = (n, c, kh, kw, oh, ow)
        strides = (src.strides[0], src.strides[1], src.strides[2],
                   src.strides[3], src.strides[2] * sh, src.strides[3] * sw)
        return np.lib.stride_tricks.as_strided(src, shape=shape,
                                               strides=strides)

    def _bind_conv(self, step: _StepIR, env: _BindEnv):
        op = step.op
        out4 = env.static_view(step.index)
        n = out4.shape[0]
        g = op.groups
        oh, ow = out4.shape[2], out4.shape[3]
        in_view, prologue, sx = self._input(step, env)
        if step.padded_buf >= 0:
            src, refill = self._padded(env.views, step, in_view,
                                       out4.dtype.type(0))
            prologue = _chain(prologue, refill)
        else:
            src = in_view
        acc4 = out4 if step.acc_buf < 0 else env.views[step.acc_buf]
        gemm_out = acc4.reshape(n, g, op._cout_g, oh * ow)
        wmat = op._wmat[None]
        bias4 = (op._bias.reshape(1, g, op._cout_g, 1)
                 if op._bias is not None else None)
        epilogue = self._epilogue(step, env, gemm_out, out4, sx, bias4)
        if step.strategy == "pointwise":
            cols = src.reshape(n, g, op._cin_g, oh * ow)
            if not np.shares_memory(cols, src):  # pragma: no cover
                raise AssertionError("pointwise view must not copy")
            del src

            def run_pw() -> None:
                if prologue is not None:
                    prologue()
                np.matmul(wmat, cols, out=gemm_out)
                epilogue()

            return run_pw
        # general im2col GEMM through the static scratch buffer
        scratch = env.views[step.scratch_buf]
        win = self._windows(src, op.kernel_size, op.stride, (oh, ow))
        kh, kw = op.kernel_size
        cols = scratch.reshape(n, g, op._cin_g * kh * kw, oh * ow)

        def run_gemm() -> None:
            if prologue is not None:
                prologue()
            np.copyto(scratch, win)
            np.matmul(wmat, cols, out=gemm_out)
            epilogue()

        return run_gemm

    def _bind_maxpool(self, step: _StepIR, env: _BindEnv):
        pool = step.op
        out = env.static_view(step.index)
        oh, ow = out.shape[2], out.shape[3]
        in_view, prologue, _ = self._input(step, env)
        if step.padded_buf >= 0:
            low = (-np.inf if self.bits is None
                   else np.iinfo(out.dtype).min)
            src, refill = self._padded(env.views, step, in_view, low)
            prologue = _chain(prologue, refill)
        else:
            src = in_view
        win = self._windows(src, pool.kernel_size, pool.stride, (oh, ow))
        kh, kw = pool.kernel_size
        taps = [win[:, :, i, j] for i in range(kh) for j in range(kw)]
        first, rest = taps[0], taps[1:]
        relu = step.strategy.endswith("+relu")
        zero = out.dtype.type(0)

        def run_pool() -> None:
            if prologue is not None:
                prologue()
            np.copyto(out, first)
            for tap in rest:
                np.maximum(out, tap, out=out)
            if relu:
                np.maximum(out, zero, out=out)

        return run_pool

    def _bind_relu(self, step: _StepIR, env: _BindEnv):
        out = env.static_view(step.index)
        in_view, prologue, _ = self._input(step, env)
        src = in_view.reshape(out.shape)
        zero = out.dtype.type(0)

        def run_relu() -> None:
            if prologue is not None:
                prologue()
            np.maximum(src, zero, out=out)

        return run_relu

    def _bind_dense(self, step: _StepIR, env: _BindEnv):
        op = step.op
        out = env.static_view(step.index)
        batch = out.shape[0]
        in_view, prologue, sx = self._input(step, env)
        flat = in_view.reshape(batch, op.in_features)
        if not np.shares_memory(flat, in_view):  # pragma: no cover
            raise AssertionError("dense input view must not copy")
        acc = out if step.acc_buf < 0 else env.views[step.acc_buf]
        weight_t = op._weight.T if self.bits is None else op._wt
        # Row at a time: float results never depend on the batch.
        rows = [(flat[r], acc[r]) for r in range(batch)]
        epilogue = self._epilogue(step, env, acc, out, sx, op._bias)

        def run_dense() -> None:
            if prologue is not None:
                prologue()
            for src, dst in rows:
                np.matmul(src, weight_t, out=dst)
            epilogue()

        return run_dense

    def _bind_concat(self, step: _StepIR, env: _BindEnv):
        out = env.static_view(step.index)
        if self.bits is None:
            copies = [(env.getter(step.inputs[pos]), out[:, c0:c1])
                      for pos, (c0, c1) in step.copy_slices]

            def run_concat() -> None:
                for get, dst in copies:
                    np.copyto(dst, get())

            return run_concat
        # Integer: rescale every branch onto the per-sample max scale
        # (QuantizedInferencePlan._concat), so no branch can clip.
        bits = self.bits
        sy = env.scales[step.index]
        n = out.shape[0]
        extra = (1,) * (out.ndim - 1)
        parts = [(env.getter(step.inputs[pos]), env.scales[step.inputs[pos]],
                  out[:, c0:c1]) for pos, (c0, c1) in step.copy_slices]

        def run_qconcat() -> None:
            got = [(get(), s) if s is not None else quantize_batch(get(), bits)
                   for get, s, _ in parts]
            sy[:] = np.stack([s for _, s in got], axis=0).max(axis=0)
            for (q, s), (_, _, dst) in zip(got, parts):
                ratio = (s / sy).reshape((n,) + extra)
                np.copyto(dst, np.round(q * ratio), casting="unsafe")

        return run_qconcat

    def _bind_add(self, step: _StepIR, env: _BindEnv):
        out = env.static_view(step.index)
        srcs = [env.getter(i) for i in step.inputs]
        if self.bits is not None:
            return self._bind_qadd(step, env, out, srcs)
        if step.inplace_src >= 0:
            rest = [s for pos, s in enumerate(srcs)
                    if pos != step.inplace_src]

            def run_add_inplace() -> None:
                for s in rest:
                    np.add(out, s(), out=out)

            return run_add_inplace
        first, second = srcs[0], srcs[1]
        rest = srcs[2:]

        def run_add() -> None:
            np.add(first(), second(), out=out)
            for s in rest:
                np.add(out, s(), out=out)

        return run_add

    def _bind_qadd(self, step: _StepIR, env: _BindEnv, out: np.ndarray,
                   srcs):
        """Integer add: sum the dequantized inputs, requantize per sample.

        Same operations as the interpreted plan's ``as_float`` sum plus
        :func:`quantize_batch`, so the levels match bit for bit.
        """
        acc = env.views[step.acc_buf]
        sy = env.scales[step.index]
        n = out.shape[0]
        qmax = 2 ** (self.bits - 1) - 1
        bshape = (n,) + (1,) * (out.ndim - 1)
        terms = [(get, env.scales[i]) for get, i in zip(srcs, step.inputs)]
        (first, s0), rest = terms[0], terms[1:]

        def run_qadd() -> None:
            np.copyto(acc, first())
            if s0 is not None:
                np.multiply(acc, s0.reshape(bshape), out=acc)
            for get, s in rest:
                part = get()
                if s is not None:
                    part = part.astype(np.float64)
                    part *= s.reshape(bshape)
                np.add(acc, part, out=acc)
            max_abs = np.abs(acc.reshape(n, -1)).max(axis=1)
            sy[:] = np.where(max_abs == 0.0, 1.0, max_abs / qmax)
            np.divide(acc, sy.reshape(bshape), out=acc)
            np.round(acc, out=acc)
            np.clip(acc, -qmax, qmax, out=acc)
            np.copyto(out, acc, casting="unsafe")

        return run_qadd


def _chain(a: Optional[Callable[[], None]],
           b: Callable[[], None]) -> Callable[[], None]:
    if a is None:
        return b

    def both() -> None:
        a()
        b()

    return both


# -- the compile pass --------------------------------------------------------


def _classify(plan, quantized: bool) -> List[_StepIR]:
    """Pass 0: map plan steps to compile-time kinds (no shapes yet)."""
    index_of = {step.name: i for i, step in enumerate(plan.steps)}
    irs: List[_StepIR] = []
    for i, step in enumerate(plan.steps):
        inputs = tuple(index_of[name] for name in step.inputs)
        kind = step.kind
        label = step.fused or step.kind
        op = step.op
        module: Optional[_ModuleStep] = None
        strategy = ""
        if kind in ("fused_conv", "qconv"):
            kind = "conv"
        elif kind in ("fused_dense", "qdense"):
            kind = "dense"
            strategy = "prebound"
        elif kind == "qop":
            if isinstance(op, QuantizedMaxPool):
                kind = "maxpool"
                strategy = "taps" + ("+relu" if op.relu else "")
            elif isinstance(op, QuantizedReLU) or (
                    isinstance(op, QuantizedReshape) and op.relu):
                kind = "relu"
            else:
                assert isinstance(op, (QuantizedReshape, QuantizedIdentity))
                kind = "alias"
        elif kind == "module":
            mod_step: _ModuleStep = op
            activation = mod_step.activation
            plain = activation is None or isinstance(activation, Identity)
            relu = isinstance(activation, layers.ReLU)
            # Integer plans keep every remaining module as a float
            # fallback: re-quantizing its output must match the plan.
            if not quantized and isinstance(
                    mod_step.module, layers.MaxPool2D) and (plain or relu):
                kind = "maxpool"
                op = mod_step.module
                label = "maxpool" + ("+relu" if relu else "")
                strategy = "taps" + ("+relu" if relu else "")
            elif not quantized and plain and isinstance(
                    mod_step.module, (layers.Flatten, layers.Dropout,
                                      Identity)):
                kind = "alias"
                label = f"alias[{type(mod_step.module).__name__.lower()}]"
            else:
                module = mod_step.clone()
                label = f"module[{type(mod_step.module).__name__}]"
        irs.append(_StepIR(index=i, name=step.name, kind=kind, label=label,
                           inputs=inputs, op=op, strategy=strategy,
                           module=module))
    return irs


def _consumers(irs: List[_StepIR]) -> List[List[int]]:
    consumers: List[List[int]] = [[] for _ in irs]
    for ir in irs:
        for src in ir.inputs:
            consumers[src].append(ir.index)
    return consumers


def _flattens(op) -> bool:
    return isinstance(op, QuantizedReshape) or isinstance(
        getattr(op, "module", None), layers.Flatten)


def _module_out_shape(module: _ModuleStep,
                      in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    with no_grad():
        out = module(np.zeros(in_shape, dtype=np.float64))
    return tuple(out.shape)


def _write_through_targets(irs: List[_StepIR],
                           consumers: List[List[int]]) -> Dict[int, int]:
    """Producer index -> join index for float join write-through.

    A conv/maxpool whose sole consumer is a ``concat`` (or the first
    eligible conv input of an ``add``) writes straight into its slice
    of the join buffer.  Integer joins rescale every input per sample,
    so integer programs never write through.
    """
    out_idx = len(irs) - 1
    targets: Dict[int, int] = {}
    for ir in irs:
        if ir.kind == "concat":
            for src in ir.inputs:
                if (irs[src].kind in ("conv", "maxpool")
                        and consumers[src] == [ir.index]
                        and src != out_idx):
                    targets[src] = ir.index
        elif ir.kind == "add":
            for src in ir.inputs[:2]:
                if (irs[src].kind == "conv"
                        and consumers[src] == [ir.index]
                        and src != out_idx
                        and ir.inputs.count(src) == 1):
                    targets[src] = ir.index
                    break
    return targets


def _lower(plan: Union[InferencePlan, QuantizedInferencePlan], batch: int,
           input_shape: Tuple[int, int, int]) -> CompiledProgram:
    """Lower one plan at one batch size: the single compile pass."""
    quantized = isinstance(plan, QuantizedInferencePlan)
    act = np.dtype(plan.dtype) if quantized else _F64
    irs = _classify(plan, quantized)
    consumers = _consumers(irs)
    n_steps = len(irs)
    out_idx = n_steps - 1
    bufs: List[_Buf] = []
    last_use: List[int] = [ir.index for ir in irs]
    for ir in irs:
        for src in ir.inputs:
            last_use[src] = max(last_use[src], ir.index)

    def new_buf(shape: Tuple[int, ...], alloc_at: int, free_at: int,
                dtype: np.dtype = act) -> int:
        bufs.append(_Buf(shape=tuple(int(d) for d in shape),
                         alloc_at=alloc_at, free_at=free_at, dtype=dtype))
        return len(bufs) - 1

    wt_targets = ({} if quantized
                  else _write_through_targets(irs, consumers))

    def lifetime(idx: int) -> int:
        """Last step needing step idx's buffer."""
        free_at = n_steps if idx == out_idx else last_use[idx]
        # Aliases keep their base alive: extend through alias consumers.
        stack = [c for c in consumers[idx] if irs[c].kind == "alias"]
        while stack:
            a = stack.pop()
            free_at = max(free_at, n_steps if a == out_idx else last_use[a])
            stack.extend(c for c in consumers[a] if irs[c].kind == "alias")
        # Float module steps may return views of their input: keep the
        # input buffer alive while the module's own value is.  (Integer
        # levels reach a module dequantized, i.e. as a fresh array.)
        for c in consumers[idx]:
            if irs[c].kind == "module" and not quantized:
                free_at = max(free_at,
                              n_steps if c == out_idx else last_use[c])
        return free_at

    def transient(idx: int, shape: Tuple[int, ...],
                  dtype: np.dtype = act) -> int:
        return new_buf(shape, idx, idx, dtype)

    def is_dynamic(value: _Value) -> bool:
        while value.mode == "alias":
            value = irs[value.base].value
        return value.mode == "dynamic"

    # Join buffers for write-through targets, created up front so
    # producers can reference them.  Channel offsets follow input order.
    join_bufs: Dict[int, int] = {}
    join_channels: Dict[int, Dict[int, Tuple[int, int]]] = {}

    # Pass 1: shapes, values, transients.
    shapes: List[Tuple[int, ...]] = [()] * n_steps
    for ir in irs:
        i = ir.index
        if ir.kind == "input":
            shape = (batch,) + tuple(input_shape)
            ir.value = _Value("static", shape,
                              buf=new_buf(shape, i, lifetime(i)),
                              scale=i if quantized else -1)
            shapes[i] = shape
            continue
        in_shape = shapes[ir.inputs[0]]
        in_value = irs[ir.inputs[0]].value
        # A float module output feeding a static kernel is staged.
        stage = (ir.kind in ("conv", "maxpool", "relu", "dense")
                 and is_dynamic(in_value))
        if stage:
            ir.stage_buf = transient(i, in_shape)
        # The interpreted ops check their input at run time; a program
        # fixes every shape now, so a mismatch must fail here, with the
        # same message, not as a reshape error on the first run.
        if ir.kind == "conv" and in_shape[1] != ir.op.in_channels:
            raise ValueError(f"expected {ir.op.in_channels} channels, "
                             f"got {in_shape[1]}")
        if ir.kind == "dense":
            features = int(np.prod(in_shape[1:], dtype=np.int64))
            if features != ir.op.in_features:
                raise ValueError(f"expected {ir.op.in_features} features, "
                                 f"got {features}")
        if ir.kind in ("conv", "maxpool"):
            op = ir.op
            kh, kw = op.kernel_size
            ph, pw = op.padding
            oh, ow = conv_output_plane(in_shape[2], in_shape[3],
                                       op.kernel_size, op.stride, op.padding)
            if (ph, pw) != (0, 0):
                ir.padded_shape = (in_shape[0], in_shape[1],
                                  in_shape[2] + 2 * ph, in_shape[3] + 2 * pw)
                ir.padded_buf = transient(i, ir.padded_shape)
        if ir.kind == "conv":
            shape = (in_shape[0], op.out_channels, oh, ow)
            if (kh, kw) == (1, 1) and op.stride == (1, 1) \
                    and (ph, pw) == (0, 0):
                ir.strategy = "pointwise"
            elif op.depthwise:
                # Depthwise lowers to the same im2col GEMM as a grouped
                # conv (cin_g == 1): with the gather hitting a static
                # scratch buffer, batched BLAS beats the interpreted
                # einsum ~2x at identical accumulation order per output.
                ir.strategy = "dw-gemm"
            else:
                ir.strategy = "gemm"
            if ir.strategy != "pointwise":
                ir.scratch_buf = transient(
                    i, (shape[0], in_shape[1], kh, kw, shape[2], shape[3]))
        elif ir.kind == "maxpool":
            shape = (in_shape[0], in_shape[1], oh, ow)
        elif ir.kind == "relu":
            shape = ((in_shape[0],
                      int(np.prod(in_shape[1:], dtype=np.int64)))
                     if _flattens(ir.op) else in_shape)
        elif ir.kind == "dense":
            shape = (batch, ir.op.out_features)
        elif ir.kind == "concat":
            channels = [shapes[s][1] for s in ir.inputs]
            shape = (in_shape[0], sum(channels)) + tuple(in_shape[2:])
            offsets = np.concatenate([[0], np.cumsum(channels)])
            ranges = [(int(offsets[p]), int(offsets[p + 1]))
                      for p in range(len(ir.inputs))]
            wt_positions = {pos for pos, src in enumerate(ir.inputs)
                            if wt_targets.get(src) == i}
            ir.copy_slices = tuple(
                (pos, ranges[pos]) for pos in range(len(ir.inputs))
                if pos not in wt_positions)
            ir.strategy = (f"write-through:{len(wt_positions)}/"
                           f"{len(ir.inputs)}" if wt_positions else "copy")
            join_channels[i] = {ir.inputs[pos]: ranges[pos]
                                for pos in wt_positions}
        elif ir.kind == "add":
            shape = in_shape
            wt_srcs = [src for src in ir.inputs
                       if wt_targets.get(src) == i]
            if wt_srcs:
                ir.inplace_src = ir.inputs.index(wt_srcs[0])
                ir.strategy = "in-place"
                join_channels[i] = {wt_srcs[0]: (0, shape[1])}
            else:
                ir.strategy = "copy"
        elif ir.kind == "alias":
            shape = ((in_shape[0],
                      int(np.prod(in_shape[1:], dtype=np.int64)))
                     if _flattens(ir.op) else in_shape)
            ir.value = _Value("alias", shape, base=ir.inputs[0],
                              scale=in_value.scale)
            shapes[i] = shape
            continue
        else:  # module
            shape = _module_out_shape(ir.module, in_shape)
            ir.value = _Value("dynamic", shape)
            shapes[i] = shape
            continue
        if quantized and ir.kind in ("conv", "dense", "add"):
            ir.acc_buf = transient(i, shape, _F64)

        shapes[i] = shape
        scale = -1
        if quantized:
            scale = (in_value.scale if ir.kind in _SCALE_PRESERVING
                     and not stage else i)
        join = wt_targets.get(i)
        if join is not None:
            # Output lives inside the join's buffer; make sure that
            # buffer exists, allocated from this step onwards.
            jbuf = join_bufs.get(join)
            if jbuf is None:
                jbuf = new_buf((0,), i, n_steps)  # placeholder
                join_bufs[join] = jbuf
            ir.value = _Value("slice", shape, buf=jbuf)
            ir.write_through = True
            continue
        jbuf = join_bufs.get(i)
        if jbuf is not None:
            # This step IS a join with write-through producers: fix up
            # the placeholder buffer created by the first one.
            buf = bufs[jbuf]
            buf.shape = tuple(int(d) for d in shape)
            buf.free_at = lifetime(i)
        else:
            jbuf = new_buf(shape, i, lifetime(i))
        ir.value = _Value("static", shape, buf=jbuf, scale=scale)

    # Resolve write-through slice channel ranges now the joins are known.
    for ir in irs:
        if ir.write_through:
            join = wt_targets[ir.index]
            ir.value.channels = join_channels[join][ir.index]

    # Pass 2: assign offsets.  Buffers of step i (transients, then the
    # output) are placed before anything dies at i, so a kernel's
    # inputs, scratch, accumulator and output never overlap.
    allocator = _StaticAllocator()
    by_alloc: Dict[int, List[int]] = {}
    by_free: Dict[int, List[int]] = {}
    for bid, buf in enumerate(bufs):
        by_alloc.setdefault(buf.alloc_at, []).append(bid)
        by_free.setdefault(buf.free_at, []).append(bid)
    peak = 0
    for i in range(n_steps):
        for bid in by_alloc.get(i, ()):
            bufs[bid].offset = allocator.alloc(bufs[bid].nbytes)
        peak = max(peak, allocator.high_water)
        for bid in by_free.get(i, ()):
            allocator.free(bufs[bid].offset, bufs[bid].nbytes)

    return CompiledProgram(irs, bufs, peak, batch, tuple(input_shape),
                           plan.bits if quantized else None)


# -- public API --------------------------------------------------------------


@dataclass
class CompiledStats:
    """Aggregate counters for one :class:`CompiledPlan`."""

    compiled_batches: Tuple[int, ...] = ()
    runs: int = 0
    arena_bytes: Dict[int, int] = field(default_factory=dict)
    bound_replicas: Dict[int, int] = field(default_factory=dict)


class CompiledPlan:
    """Batch-specialized executable programs over an interpreted plan.

    The plan is a float :class:`~repro.nn.infer.InferencePlan` or an
    integer :class:`~repro.nn.quant.QuantizedInferencePlan`.  ``run``
    dispatches to the program compiled for ``x.shape[0]``, compiling a
    batch size it has not met on first use; an input whose per-sample
    shape is not ``input_shape`` raises ``ValueError``.  Integer
    programs also take pre-quantized input through
    :meth:`run_quantized` (serving ring payloads).

    Sharing: the compiled programs (step metadata, offsets, weight
    views) are immutable and shared by every thread.  Each thread binds
    one static block, sized for the largest program compiled when it
    binds, and every program it runs is a set of views into that block
    (:meth:`block_bytes`).  A larger program compiled later replaces
    the thread's block, and that thread's programs bind again.
    """

    def __init__(self, plan: Union[InferencePlan, QuantizedInferencePlan],
                 input_shape: Tuple[int, int, int],
                 batch_sizes: Sequence[int] = (1,)) -> None:
        self._plan = plan
        self.input_shape = tuple(int(d) for d in input_shape)
        self._programs: Dict[int, CompiledProgram] = {}
        self._compile_lock = threading.Lock()
        self._local = threading.local()
        self._runs_lock = threading.Lock()
        self.runs = 0
        for b in batch_sizes:
            self._ensure(int(b))

    # -- compilation ---------------------------------------------------------

    def _ensure(self, batch: int) -> CompiledProgram:
        prog = self._programs.get(batch)
        if prog is None:
            with self._compile_lock:
                prog = self._programs.get(batch)
                if prog is None:
                    with obs.span("infer.compile", batch=batch,
                                  steps=len(self._plan.steps)):
                        prog = _lower(self._plan, batch, self.input_shape)
                    # Publish only once fully built.
                    programs = dict(self._programs)
                    programs[batch] = prog
                    self._programs = programs
        return prog

    @property
    def plan(self) -> Union[InferencePlan, QuantizedInferencePlan]:
        return self._plan

    @property
    def batch_sizes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._programs))

    def program(self, batch: int) -> CompiledProgram:
        """The compiled program for ``batch`` (compiling if needed)."""
        return self._ensure(int(batch))

    def describe(self, batch: Optional[int] = None) -> str:
        batch = batch if batch is not None else self.batch_sizes[0]
        return self._programs[batch].describe()

    def static_arena_bytes(self, batch: int) -> int:
        return self._programs[batch].total_bytes

    def block_bytes(self) -> int:
        """Size of the calling thread's static block (0 before it runs)."""
        block = getattr(self._local, "block", None)
        return 0 if block is None else block.nbytes

    @property
    def fused_step_count(self) -> int:
        return self._plan.fused_step_count

    def stats(self) -> CompiledStats:
        return CompiledStats(
            compiled_batches=self.batch_sizes,
            runs=self.runs,
            arena_bytes={b: p.total_bytes
                         for b, p in self._programs.items()},
            bound_replicas={b: p.bound_replicas
                            for b, p in self._programs.items()},
        )

    # -- execution -----------------------------------------------------------

    def _bound(self, x: np.ndarray) -> _BoundProgram:
        """The calling thread's binding of the program for ``x``.

        Counts the run: threads share the plan, so under a lock.
        """
        if x.ndim != 4 or tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"expected input shape (N,) + "
                             f"{self.input_shape}, got {tuple(x.shape)}")
        with self._runs_lock:
            self.runs += 1
        batch = int(x.shape[0])
        local = self._local
        bound = getattr(local, "bound", None)
        prog = bound.get(batch) if bound is not None else None
        if prog is not None:
            return prog
        program = self._ensure(batch)
        if bound is None or program.total_bytes > local.block.nbytes:
            size = max(p.total_bytes for p in self._programs.values())
            local.block = np.empty(max(size, ALIGN), dtype=np.uint8)
            local.bound = bound = {}
            obs.count("infer.compiled.block")
            obs.gauge("infer.compiled.arena_bytes", local.block.nbytes)
        prog = bound[batch] = program.bind(local.block)
        return prog

    def run(self, x: np.ndarray) -> np.ndarray:
        return self._bound(x).execute(x)

    def run_quantized(self, q: np.ndarray,
                      scales: np.ndarray) -> np.ndarray:
        """Run an integer plan on pre-quantized levels + sample scales."""
        if not isinstance(self._plan, QuantizedInferencePlan):
            raise TypeError("run_quantized needs a quantized plan")
        return self._bound(q).execute(q, scales)

    __call__ = run


def compile_plan(plan: Union[InferencePlan, QuantizedInferencePlan],
                 input_shape: Tuple[int, int, int],
                 batch_sizes: Sequence[int] = (1,)) -> CompiledPlan:
    """Lower an interpreted float or integer plan into batch programs.

    ``input_shape`` is the per-sample ``(C, H, W)`` shape (batch
    excluded).  ``batch_sizes`` are compiled eagerly; any other batch
    size compiles on first use.
    """
    return CompiledPlan(plan, input_shape, batch_sizes)


compile_quantized_plan = compile_plan
