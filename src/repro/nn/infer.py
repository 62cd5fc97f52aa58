"""Inference fast path: graph fusion, execution plan and memory planner.

Three cooperating pieces turn a :class:`~repro.nn.network.GraphNetwork`
into a lean eval-mode runtime:

* **Fusion pass** — :func:`build_inference_plan` folds each conv node's
  ``BatchNorm2D`` running statistics into the convolution weights/bias
  (:func:`fold_batchnorm`) and fuses a trailing ReLU into the conv (or
  dense) epilogue, so a conv+BN+ReLU chain executes as one kernel with
  no intermediate tensors.
* **Memory planner** — :func:`liveness_release_schedule` computes the
  last use of every node's activation; :func:`release_dead` returns
  dead buffers to a :class:`BufferArena` keyed by ``(shape, dtype)``,
  so repeated layer shapes (every fire/bottleneck block) recycle the
  same allocations instead of churning the allocator.
* **Execution plan** — :class:`InferencePlan` runs the fused steps
  under :func:`~repro.nn.module.no_grad`, writing convolution outputs
  and im2col scratch directly into arena buffers.

Fused plans snapshot parameter values at build time: rebuild the plan
after mutating weights (training steps, quantization).
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.graph import layer_spec as spec
from repro.nn import layers
from repro.nn.functional import conv_output_plane, sliding_windows
from repro.nn.module import Module, no_grad


# -- memory planner ----------------------------------------------------------


class BufferArena:
    """Free-list allocator for activation buffers, keyed by (shape, dtype).

    ``acquire`` hands back a previously released buffer of the exact
    shape/dtype when one is available, otherwise allocates.  Released
    buffers must be exclusively owned — the liveness machinery in
    :func:`release_dead` guarantees that before calling ``release``.

    An arena is deliberately **unlocked** (it sits on the per-layer hot
    path) and therefore single-threaded: its free lists *and* its
    hit/miss/release counters are plain unshared state.  Concurrent
    executors each hold their own replica — :class:`ArenaRegistry`
    hands one per thread, :meth:`InferencePlan.clone` gives one per
    plan replica — and read-time aggregation goes through
    :meth:`merge_stats`.
    """

    def __init__(self) -> None:
        self._free: Dict[Tuple[Tuple[int, ...], np.dtype], List[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.releases = 0

    def acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype))
        bucket = self._free.get(key)
        if bucket:
            self.hits += 1
            obs.count("arena.hits")
            return bucket.pop()
        self.misses += 1
        obs.count("arena.misses")
        return np.empty(key[0], dtype=key[1])

    def release(self, array: np.ndarray) -> bool:
        """Return a buffer to the free list.  Views are refused."""
        if array.base is not None:
            return False
        key = (array.shape, array.dtype)
        self._free.setdefault(key, []).append(array)
        self.releases += 1
        obs.count("arena.releases")
        return True

    @property
    def held_bytes(self) -> int:
        return sum(a.nbytes for bucket in self._free.values() for a in bucket)

    def clear(self) -> None:
        self._free.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "releases": self.releases,
            "held_bytes": self.held_bytes,
        }

    @staticmethod
    def merge_stats(stats: Iterable[Mapping[str, int]]) -> Dict[str, int]:
        """Sum per-replica :meth:`stats` dicts into one aggregate."""
        total = {"hits": 0, "misses": 0, "releases": 0, "held_bytes": 0}
        for snapshot in stats:
            for key in total:
                total[key] += int(snapshot.get(key, 0))
        return total


class ArenaRegistry:
    """Per-thread :class:`BufferArena` replicas with aggregated stats.

    ``get()`` returns the calling thread's private arena (creating it
    on first use), so an unlocked arena never crosses threads; the
    registry keeps a list of every replica it handed out for
    whole-object queries (``stats``, ``held_bytes``, ``clear``).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._replicas: List[BufferArena] = []

    def get(self) -> BufferArena:
        arena = getattr(self._local, "arena", None)
        if arena is None:
            arena = BufferArena()
            with self._lock:
                self._replicas.append(arena)
            self._local.arena = arena
        return arena

    def replicas(self) -> List[BufferArena]:
        with self._lock:
            return list(self._replicas)

    def stats(self) -> Dict[str, int]:
        return BufferArena.merge_stats(a.stats() for a in self.replicas())

    @property
    def held_bytes(self) -> int:
        return sum(a.held_bytes for a in self.replicas())

    def clear(self) -> None:
        for arena in self.replicas():
            arena.clear()


def liveness_release_schedule(
    nodes: Sequence, protect: Set[str],
) -> List[List[str]]:
    """Per-step lists of node names whose activation dies at that step.

    ``nodes`` is any sequence of objects with ``.name`` and ``.inputs``
    executed in order.  The final node's output and every name in
    ``protect`` (graph inputs — caller-owned memory) are never released.
    """
    last_use: Dict[str, int] = {}
    for i, node in enumerate(nodes):
        last_use[node.name] = i
        for name in node.inputs:
            last_use[name] = i
    releases: List[List[str]] = [[] for _ in nodes]
    output_name = nodes[-1].name
    for name, i in last_use.items():
        if name != output_name and name not in protect:
            releases[i].append(name)
    return releases


def _root(array: np.ndarray) -> np.ndarray:
    """The array that actually owns the memory behind a view chain.

    Stops at the last *ndarray* in the base chain: a frombuffer-backed
    input (shared-memory ring payloads in process serving) bottoms out
    at a bytes/memoryview owner, which can never alias an arena buffer.
    """
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def release_dead(values: Dict[str, np.ndarray], names: Iterable[str],
                 arena: BufferArena) -> None:
    """Drop dead activations, recycling exclusively-owned buffers.

    A buffer goes back to the arena only when nothing live can alias it:
    views (Flatten's reshape) never own memory, and an owner stays out
    of the arena while any live value is a view of it (or *is* it —
    Identity activations return their input unchanged).
    """
    for name in names:
        array = values.pop(name, None)
        if array is None:
            continue
        if array.base is not None:
            continue
        if any(_root(v) is array for v in values.values()):
            continue
        arena.release(array)


def concat_channels(srcs: Sequence[np.ndarray],
                    arena: Optional[BufferArena] = None) -> np.ndarray:
    """Channel-axis concatenation, arena-backed when an arena is given."""
    if arena is None:
        return np.concatenate(srcs, axis=1)
    shape = list(srcs[0].shape)
    shape[1] = sum(s.shape[1] for s in srcs)
    out = arena.acquire(tuple(shape), np.result_type(*srcs))
    np.concatenate(srcs, axis=1, out=out)
    return out


def add_tensors(srcs: Sequence[np.ndarray],
                arena: Optional[BufferArena] = None) -> np.ndarray:
    """Elementwise sum of fan-in branches, arena-backed when possible."""
    if arena is None:
        total = srcs[0].copy()
    else:
        total = arena.acquire(srcs[0].shape, np.result_type(*srcs))
        np.copyto(total, srcs[0])
    for s in srcs[1:]:
        total += s
    return total


# -- fusion pass -------------------------------------------------------------


def fold_batchnorm(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    bn: layers.BatchNorm2D,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold BN running statistics into conv weights and bias.

    ``bn(conv(x)) == conv'(x)`` with ``w' = w * gamma/std`` per output
    channel and ``b' = (b - mean) * gamma/std + beta``, where ``std``
    uses the running variance — exactly what eval-mode BN computes.
    Returns new arrays; the originals are untouched.
    """
    scale = bn.gamma.value / np.sqrt(bn.running_var + bn.eps)
    folded_w = weight * scale.reshape(-1, 1, 1, 1)
    b = bias if bias is not None else np.zeros(weight.shape[0])
    folded_b = (b - bn.running_mean) * scale + bn.beta.value
    return folded_w, folded_b


class FusedConv2D:
    """Conv + folded BN + optional ReLU epilogue, arena-allocated.

    Uses the same batched grouped kernel as :class:`repro.nn.layers.Conv2D`
    but writes the GEMM result and the im2col scratch into arena
    buffers, applying bias and ReLU in place.
    """

    def __init__(self, conv: layers.Conv2D,
                 bn: Optional[layers.BatchNorm2D] = None,
                 relu: bool = False) -> None:
        weight = conv.weight.value
        bias = conv.bias.value if conv.bias is not None else None
        if bn is not None:
            weight, bias = fold_batchnorm(weight, bias, bn)
        else:
            weight = weight.copy()
            bias = bias.copy() if bias is not None else None
        self.in_channels = conv.in_channels
        self.out_channels = conv.out_channels
        self.kernel_size = conv.kernel_size
        self.stride = conv.stride
        self.padding = conv.padding
        self.groups = conv.groups
        self.relu = relu
        self.fused = "conv" + ("+bn" if bn is not None else "") + (
            "+relu" if relu else "")
        g = conv.groups
        kh, kw = conv.kernel_size
        self._cout_g = conv.out_channels // g
        self._cin_g = conv.in_channels // g
        self.depthwise = conv.is_depthwise and g > 1
        # (g, cout_g, cin_g*kh*kw) GEMM view and (g, cout_g, kh, kw)
        # depthwise view of the folded weights.
        self._wmat = np.ascontiguousarray(
            weight.reshape(g, self._cout_g, self._cin_g * kh * kw))
        self._wdw = np.ascontiguousarray(
            weight.reshape(g, self._cout_g, kh, kw)) if self.depthwise else None
        self._bias = bias

    def __call__(self, x: np.ndarray, arena: BufferArena) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        g = self.groups
        kh, kw = self.kernel_size
        out_h, out_w = conv_output_plane(h, w, self.kernel_size,
                                         self.stride, self.padding)
        dtype = np.result_type(x.dtype, self._wmat.dtype)
        if self.depthwise:
            windows = sliding_windows(x, self.kernel_size, self.stride,
                                      self.padding)
            out = arena.acquire((n, g, self._cout_g, out_h, out_w), dtype)
            np.einsum("ncijpq,cmij->ncmpq", windows, self._wdw, out=out)
            if self._bias is not None:
                out += self._bias.reshape(1, g, self._cout_g, 1, 1)
        else:
            # im2col scratch comes from (and returns to) the arena too.
            scratch = arena.acquire((n, c, kh, kw, out_h, out_w), x.dtype)
            np.copyto(scratch, sliding_windows(x, self.kernel_size,
                                               self.stride, self.padding))
            cols = scratch.reshape(n, g, self._cin_g * kh * kw,
                                   out_h * out_w)
            out = arena.acquire((n, g, self._cout_g, out_h * out_w), dtype)
            np.matmul(self._wmat[None], cols, out=out)
            arena.release(scratch)
            if self._bias is not None:
                out += self._bias.reshape(1, g, self._cout_g, 1)
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out.reshape(n, self.out_channels, out_h, out_w)


class FusedDense:
    """Dense + optional ReLU epilogue on a snapshot of the weights."""

    def __init__(self, dense, relu: bool = False) -> None:
        self.in_features = dense.in_features
        self.out_features = dense.out_features
        self.relu = relu
        self.fused = "dense" + ("+relu" if relu else "")
        self._weight = dense.weight.value.copy()
        self._bias = (dense.bias.value.copy()
                      if dense.bias is not None else None)

    def __call__(self, x: np.ndarray, arena: BufferArena) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} features, got {flat.shape[1]}")
        dtype = np.result_type(flat.dtype, self._weight.dtype)
        out = arena.acquire((flat.shape[0], self.out_features), dtype)
        # Row-at-a-time so each sample's product has the same shape no
        # matter what batch it rode in on: BLAS routes (B, K) @ (K, N)
        # and (K,) @ (K, N) through different kernels whose rounding
        # differs, which would break the serving guarantee that a
        # batched response is bit-identical to a batch-1 run.
        weight_t = self._weight.T
        for row in range(flat.shape[0]):
            np.matmul(flat[row], weight_t, out=out[row])
        if self._bias is not None:
            out += self._bias
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out


# -- execution plan ----------------------------------------------------------


@dataclass
class PlanStep:
    """One executable node of an :class:`InferencePlan`."""

    name: str
    kind: str  # input | concat | add | fused_conv | fused_dense | module
    inputs: Tuple[str, ...]
    op: object = None
    fused: str = ""

    def describe(self) -> str:
        label = self.fused or self.kind
        srcs = ", ".join(self.inputs)
        return f"{self.name:<24} {label:<16} <- {srcs}" if srcs else (
            f"{self.name:<24} {label}")


class _PlanBase:
    """Scaffolding shared by the float and the integer interpreted plan.

    Both hold graph-ordered :class:`PlanStep` lists, a liveness release
    schedule and a private :class:`BufferArena`; subclasses add ``run``
    and say in :meth:`_replica` how to rebuild themselves around a list
    of steps.
    """

    def __init__(self, steps: List[PlanStep], input_names: Set[str],
                 arena: Optional[BufferArena] = None) -> None:
        if not steps:
            raise ValueError("empty plan")
        self.steps = steps
        self.input_names = input_names
        self.arena = arena or BufferArena()
        self._releases = liveness_release_schedule(steps, input_names)
        self.last_peak_live_bytes = 0

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self.steps)

    @property
    def fused_step_count(self) -> int:
        return sum(1 for s in self.steps if s.fused)

    def clone(self):
        """A replica safe to run on another thread.

        Fused and quantized ops are shared (they only read their weight
        snapshots; per-run stats travel through the plan, not the op),
        unfused module fallbacks are copied (they flip ``training``
        around each call), and the clone gets a fresh private
        :class:`BufferArena` with its own counters.
        """
        return self._replica([
            PlanStep(s.name, s.kind, s.inputs,
                     s.op.clone() if isinstance(s.op, _ModuleStep) else s.op,
                     s.fused)
            for s in self.steps
        ])


class InferencePlan(_PlanBase):
    """A fused, memory-planned eval program for one network.

    ``run`` executes the steps in graph order under ``no_grad``,
    releasing every activation at its last use and recycling buffers
    through the shared :class:`BufferArena`.

    **Threading contract:** one plan serves one thread at a time — the
    arena is unlocked and ``last_peak_live_bytes`` is per-run state.
    Concurrent executors (the :mod:`repro.serve` worker pool) call
    :meth:`clone` once per thread; clones share the immutable fused
    weights, so the memory cost is one arena's activations per thread,
    not a second copy of the model.
    """

    def _replica(self, steps: List[PlanStep]) -> "InferencePlan":
        return InferencePlan(steps, set(self.input_names))

    def quantize(self, bits: int = 16):
        """Lower this plan to integer execution.

        Convenience for :func:`repro.nn.quant.quantize_plan` — the
        fused conv steps already carry BatchNorm-folded weights, so the
        quantized plan's per-channel requantization multipliers absorb
        the BN scale for free.  Returns a
        :class:`~repro.nn.quant.QuantizedInferencePlan`.
        """
        from repro.nn.quant import quantize_plan

        return quantize_plan(self, bits)

    def run(self, x: np.ndarray) -> np.ndarray:
        values: Dict[str, np.ndarray] = {}
        peak = 0
        with obs.span("infer.plan", steps=len(self.steps),
                      batch=int(x.shape[0])) as plan_span, no_grad():
            for i, step in enumerate(self.steps):
                with obs.span("infer.step", step=step.name,
                              kind=step.fused or step.kind):
                    if step.kind == "input":
                        values[step.name] = x
                    elif step.kind == "concat":
                        values[step.name] = concat_channels(
                            [values[n] for n in step.inputs], self.arena)
                    elif step.kind == "add":
                        values[step.name] = add_tensors(
                            [values[n] for n in step.inputs], self.arena)
                    elif step.kind in ("fused_conv", "fused_dense"):
                        values[step.name] = step.op(values[step.inputs[0]],
                                                    self.arena)
                    else:
                        values[step.name] = step.op(values[step.inputs[0]])
                    peak = max(peak, sum(v.nbytes for v in values.values()))
                    release_dead(values, self._releases[i], self.arena)
            plan_span.annotate(peak_live_bytes=peak)
        self.last_peak_live_bytes = peak
        obs.gauge("infer.peak_live_bytes", peak)
        return values[self.steps[-1].name]

    __call__ = run


def build_inference_plan(net, arena: Optional[BufferArena] = None
                         ) -> InferencePlan:
    """Compile a :class:`~repro.nn.network.GraphNetwork` into a fused plan.

    Every Conv2D node absorbs its attached BatchNorm (running stats)
    and trailing ReLU; Dense nodes absorb their ReLU.  All other nodes
    execute their existing modules (forward-only, under ``no_grad``).
    Parameter values are snapshotted — rebuild after mutating weights.
    """
    steps: List[PlanStep] = []
    input_names: Set[str] = set()
    for node in net._nodes:
        s = node.spec
        inputs = tuple(node.inputs)
        if isinstance(s, spec.Input):
            input_names.add(node.name)
            steps.append(PlanStep(node.name, "input", ()))
        elif isinstance(s, spec.Concat):
            steps.append(PlanStep(node.name, "concat", inputs))
        elif isinstance(s, spec.Add):
            steps.append(PlanStep(node.name, "add", inputs))
        elif isinstance(node.module, layers.Conv2D):
            relu = isinstance(node.activation, layers.ReLU)
            op = FusedConv2D(node.module, net._bn.get(node.name), relu)
            steps.append(PlanStep(node.name, "fused_conv", inputs, op,
                                  op.fused))
        elif isinstance(node.module, layers.Dense):
            relu = isinstance(node.activation, layers.ReLU)
            op = FusedDense(node.module, relu)
            steps.append(PlanStep(node.name, "fused_dense", inputs, op,
                                  op.fused))
        else:
            op = _ModuleStep(node.module, node.activation)
            steps.append(PlanStep(node.name, "module", inputs, op))
    return InferencePlan(steps, input_names, arena)


class _ModuleStep:
    """Unfused fallback: run the node's module (+ activation) eval-style.

    The plan always has inference semantics, so the shared modules are
    flipped to eval around the call (Dropout must be a no-op and
    BatchNorm must read running stats even if the owning network is
    currently in training mode) and restored afterwards.
    """

    def __init__(self, module: Module, activation: Optional[Module]) -> None:
        self.module = module
        self.activation = activation

    def clone(self) -> "_ModuleStep":
        """Replica with privately owned modules (parameters shared).

        A shallow module copy gives the clone its own ``training`` flag
        and forward-cache slots while aliasing the parameter arrays, so
        per-thread plan replicas never toggle each other's mode.
        """
        return _ModuleStep(
            copy.copy(self.module),
            copy.copy(self.activation) if self.activation is not None
            else None)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        modules = [m for m in (self.module, self.activation) if m is not None]
        previous = [m.training for m in modules]
        for m in modules:
            m.training = False
        try:
            out = self.module(x)
            if self.activation is not None:
                out = self.activation(out)
        finally:
            for m, mode in zip(modules, previous):
                m.training = mode
        return out
