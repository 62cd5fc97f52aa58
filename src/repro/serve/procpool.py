"""Multiprocessing worker pool: GIL-free batch execution over shared memory.

The process-mode backend of :class:`repro.serve.Server`.  Topology:

* **The worker job** — :class:`WorkerRuntime`, shared with thread
  mode.  The server builds one runtime (executor build: ``quantize``
  when configured, then ``CompiledPlan``) before any worker exists;
  the pool forks its workers and each child runs
  ``runtime.clone(index)`` on the runtime it inherited, exactly as a
  thread worker does.  Quantizing and compiling happen once, in the
  parent, and every worker shares the built programs copy-on-write:
  N workers cost one copy of the model plus N static blocks, each
  sized for the largest compiled batch.  Each child then warms up and
  runs, paces and tallies its batches.
* **Requests** — one small :class:`~repro.serve.shm.ShmRing` per worker
  (single producer, single consumer).  The parent's dispatcher stacks
  a batch, writes it into the next worker's ring (header + monotonic
  deadline/submit stamps + raw activation payload in the ring's
  ``payload_dtype`` — float64 by default, int16/int8 with
  ``quantized_bits`` plus a per-sample scales block — no pickling) and
  round-robins.  Per-worker rings also mean the parent always knows
  which worker holds which batch, so a killed worker fails exactly its
  own batches.
* **Responses** — one shared ring, every worker producing, the parent's
  collector consuming.  Slots carry per-request status words (delivered
  / expired-in-worker) plus the raw batched output.
* **Stats** — a per-worker slice of one stats segment holding the
  runtime's :meth:`~WorkerRuntime.snapshot` (counters, static-block
  bytes, batch-size histogram and a full :class:`~repro.obs.LatencyHistogram`
  state vector), overwritten after each batch under a per-worker lock
  and folded into :class:`~repro.serve.ServerStats` via the
  layout-checked ``merge_state``.

Timestamps crossing the boundary are ``time.monotonic()`` — documented
system-wide on Linux/Windows/macOS (3.10+) — so a deadline stamped in
the parent expires correctly inside a worker.  Workers are always
forked: a platform without the ``fork`` start method has no process
mode (:class:`~repro.serve.ServerConfig` rejects it).
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import secrets
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.nn.compile import CompiledPlan
from repro.nn.infer import InferencePlan
from repro.nn.quant import activation_dtype, quantize_batch
from repro.obs.hist import LatencyHistogram
from repro.serve.shm import RingHandle, ShmRing, SHM_PREFIX, \
    attach_segment, create_segment, destroy_segment

if TYPE_CHECKING:
    from repro.serve.server import ServerConfig

__all__ = ["ProcessWorkerPool", "Response", "WorkerRuntime"]

MSG_BATCH = 0
MSG_STOP = 1
RESP_OK = 0
RESP_ERROR = 1
STATUS_DELIVERED = 0
STATUS_EXPIRED = 1

_ERROR_MAX = 16384
_REQ_HEADER = 3   # kind, batch_id, size (int64)
_RESP_HEADER = 5  # kind, batch_id, worker, size, extra (int64)

#: Stats-slice scalars, in order (followed by batch hist + latency state).
_COUNTERS = ("completed", "failed", "expired", "batches", "held_bytes")
_N_COUNTERS = len(_COUNTERS)


@dataclass(frozen=True)
class Response:
    """One decoded worker response."""

    batch_id: int
    worker: int
    statuses: np.ndarray            # int64, STATUS_* per request
    output: Optional[np.ndarray]    # (size, *output_shape) float64, or None
    error: Optional[str]


@dataclass(frozen=True)
class _WorkerSetup:
    """Per-worker bootstrap payload (Process args, inherited by fork)."""

    index: int
    runtime: "WorkerRuntime"        # the server's built runtime
    stats_name: str
    stats_offset: int               # in float64 elements
    stats_len: int


def _stats_slice_len(max_batch: int) -> int:
    return _N_COUNTERS + max_batch + LatencyHistogram().state_len()


# -- the worker job (thread and process workers alike) -----------------------


class WorkerRuntime:
    """One serving worker's job, the same in a thread and in a process.

    Built from ``(plan, config, input_shape)``, it owns:

    * the executor — a :class:`~repro.nn.compile.CompiledPlan` over
      the plan, or over its ``quantize(config.quantized_bits)``
      lowering when set (batch sizes 1 and ``max_batch_size`` compile
      eagerly, others on first use);
    * :meth:`warm_up`, one dummy batch before the first request;
    * :meth:`run`, one batch: execute, sleep out
      ``config.service_time``, tally;
    * :meth:`snapshot`, the tallies in the form
      :meth:`ProcessWorkerPool.worker_snapshots` returns.

    The server builds one runtime and every worker runs a
    :meth:`clone` of it — a thread worker in the server's process, a
    process worker in its forked child.  Clones share the executor;
    each worker thread binds its own static block in it.  A runtime is
    single-threaded: its worker publishes snapshots, and readers merge
    those, never the runtime.
    """

    def __init__(self, plan: InferencePlan, config: "ServerConfig",
                 input_shape: Tuple[int, ...], index: int = 0) -> None:
        self.config = config
        self.input_shape = tuple(input_shape)
        self.index = index
        if config.quantized_bits is not None:
            plan = plan.quantize(config.quantized_bits)
        self.executor = CompiledPlan(plan, self.input_shape,
                                     batch_sizes=(1, config.max_batch_size))
        self._reset()

    def _reset(self) -> None:
        self.warmed = False
        self.completed = 0
        self.failed = 0
        self.expired = 0
        self.batches = 0
        self.batch_hist = np.zeros(self.config.max_batch_size,
                                   dtype=np.float64)
        self.latency = LatencyHistogram()

    def clone(self, index: int) -> "WorkerRuntime":
        """A replica for another worker with fresh tallies.

        It shares the executor; the worker's thread binds its own
        static block there on its first batch.
        """
        replica = copy.copy(self)
        replica.index = index
        replica._reset()
        return replica

    def warm_up(self) -> None:
        """One dummy batch so the first real request pays no cold-start.

        Binds the worker's static block and batch-1 program outside any
        request's latency window.  Failures are deliberately swallowed:
        a plan that cannot run zeros will fail the first real batch with
        the genuine error.
        """
        if not self.config.warmup:
            return
        try:
            with obs.span("serve.warmup", worker=self.index):
                self.executor.run(np.zeros((1,) + self.input_shape))
            obs.count("serve.warmup")
        except Exception:  # noqa: BLE001 - first real batch will surface it
            pass
        self.warmed = True

    def run(self, xs, submits: Sequence[float],
            scales: Optional[np.ndarray] = None) -> np.ndarray:
        """Execute one batch, pace it and tally it.

        ``xs`` is the stacked batch, or the list of single images to
        stack.  ``submits`` holds the monotonic submit stamps of the
        requests to count: all of the batch except any that expired
        before execution (they still ride along and pace the batch).
        ``scales`` marks a batch of pre-quantized levels for
        ``run_quantized``.  A failure is counted against those requests
        and re-raised.
        """
        began = time.monotonic()
        try:
            with obs.span("serve.batch", worker=self.index, size=len(xs)):
                if isinstance(xs, list):
                    xs = np.stack(xs)
                out = (self.executor.run(xs) if scales is None
                       else self.executor.run_quantized(xs, scales))
            if self.config.service_time is not None:
                pause = (self.config.service_time(len(xs))
                         - (time.monotonic() - began))
                if pause > 0:
                    time.sleep(pause)
        except BaseException:
            self.failed += len(submits)
            self.batches += 1
            raise
        done = time.monotonic()
        self.completed += len(submits)
        self.batches += 1
        self.batch_hist[len(submits) - 1] += 1
        for stamp in submits:
            self.latency.record((done - stamp) * 1e6)
        return out

    def snapshot(self) -> dict:
        """Counters, static-block bytes, batch-size and latency histograms.

        ``held_bytes`` is the static block of the calling thread — the
        worker's own, since only the worker publishes its snapshots.
        """
        latency_state = np.empty(self.latency.state_len())
        self.latency.write_state(latency_state)
        return {
            "completed": self.completed,
            "failed": self.failed,
            "expired": self.expired,
            "batches": self.batches,
            "held_bytes": self.executor.block_bytes(),
            "batch_hist": self.batch_hist.copy(),
            "latency_state": latency_state,
        }


def _write_snapshot(view: np.ndarray, snapshot: dict) -> None:
    """Pack a :meth:`WorkerRuntime.snapshot` into a stats slice."""
    view[:_N_COUNTERS] = [snapshot[key] for key in _COUNTERS]
    n = len(snapshot["batch_hist"])
    view[_N_COUNTERS:_N_COUNTERS + n] = snapshot["batch_hist"]
    view[_N_COUNTERS + n:] = snapshot["latency_state"]


def _read_snapshot(row: np.ndarray, max_batch: int) -> dict:
    """The inverse of :func:`_write_snapshot`."""
    snapshot = {key: int(row[i]) for i, key in enumerate(_COUNTERS)}
    snapshot["batch_hist"] = row[_N_COUNTERS:_N_COUNTERS + max_batch]
    snapshot["latency_state"] = row[_N_COUNTERS + max_batch:]
    return snapshot


# -- worker process ----------------------------------------------------------


def _worker_main(setup: _WorkerSetup, req_handle: RingHandle,
                 resp_handle: RingHandle, stats_lock, stop_event) -> None:
    # The forked child inherited the parent's built executor; its clone
    # shares those compiled programs copy-on-write and adds only the
    # static block this process binds on its first batch.
    runtime = setup.runtime.clone(setup.index)
    input_shape = runtime.input_shape
    qdtype = None
    if runtime.config.quantized_bits is not None:
        qdtype = activation_dtype(runtime.config.quantized_bits)
    requests = ShmRing.attach(req_handle)
    responses = ShmRing.attach(resp_handle)
    stats_seg = attach_segment(setup.stats_name)
    stats_view = np.ndarray((setup.stats_len,), dtype=np.float64,
                            buffer=stats_seg.buf,
                            offset=setup.stats_offset * 8)

    def publish() -> None:
        snapshot = runtime.snapshot()
        with stats_lock:
            _write_snapshot(stats_view, snapshot)

    in_elems = int(np.prod(input_shape))
    abort = stop_event.is_set
    try:
        runtime.warm_up()
        publish()
        while True:
            message = requests.get(timeout=0.25, abort=abort)
            if message is None:
                if stop_event.is_set():
                    break
                continue
            kind, batch_id, size = (
                int(v) for v in np.frombuffer(message, "<i8",
                                              count=_REQ_HEADER))
            if kind == MSG_STOP:
                break
            offset = _REQ_HEADER * 8
            deadlines = np.frombuffer(message, "<f8", count=size,
                                      offset=offset)
            offset += 8 * size
            submits = np.frombuffer(message, "<f8", count=size,
                                    offset=offset)
            offset += 8 * size
            scales = None
            if qdtype is not None:
                scales = np.frombuffer(message, "<f8", count=size,
                                       offset=offset)
                offset += 8 * size
                xs = np.frombuffer(message, qdtype.str,
                                   count=size * in_elems,
                                   offset=offset).reshape(
                                       (size,) + input_shape)
            else:
                xs = np.frombuffer(message, "<f8", count=size * in_elems,
                                   offset=offset).reshape(
                                       (size,) + input_shape)
            # The parent stamped these deadlines; monotonic() is the
            # same system-wide clock here, so late ring pickup expires.
            statuses = np.zeros(size, dtype=np.int64)
            expired = ~np.isnan(deadlines) & (deadlines < time.monotonic())
            statuses[expired] = STATUS_EXPIRED
            runtime.expired += int(expired.sum())
            out = None
            error_text = None
            if not expired.all():
                try:
                    out = runtime.run(xs, submits[~expired], scales)
                except BaseException:  # noqa: BLE001 - forwarded to callers
                    error_text = traceback.format_exc(limit=20)
            if error_text is not None:
                data = error_text.encode("utf-8", "replace")[:_ERROR_MAX]
                header = np.array([RESP_ERROR, batch_id, setup.index, size,
                                   len(data)], dtype="<i8")
                chunks: List[object] = [header, statuses, data]
            else:
                header = np.array([RESP_OK, batch_id, setup.index, size,
                                   1 if out is not None else 0],
                                  dtype="<i8")
                chunks = [header, statuses]
                if out is not None:
                    chunks.append(np.ascontiguousarray(out,
                                                       dtype=np.float64))
            # Publish stats *before* the response becomes visible, so a
            # stats() read triggered by a resolved future already sees
            # this batch counted.
            publish()
            responses.put(chunks, abort=abort)
    finally:
        publish()
        # Drop every view into the mappings before unmapping them.
        stats_view = None
        requests.close()
        responses.close()
        destroy_segment(stats_seg, unlink=False)


# -- parent-side pool --------------------------------------------------------


class ProcessWorkerPool:
    """Parent handle on the worker processes and their shared memory.

    Forks one worker per ``runtime.config.workers`` from the server's
    built :class:`WorkerRuntime`, which must not have run yet (its
    static block would be copied into every child).
    Owns every segment (rings, stats) — :meth:`cleanup` unlinks them
    all, so ``/dev/shm`` is clean after shutdown even if workers were
    killed mid-batch.  Lifecycle: ``start`` → any number of
    ``dispatch``/``recv`` → ``send_stop`` per worker → ``join`` →
    ``cleanup``.
    """

    def __init__(self, runtime: WorkerRuntime,
                 output_shape: Tuple[int, ...]) -> None:
        config = runtime.config
        self.config = config
        self.workers = config.workers
        self.input_shape = runtime.input_shape
        self.output_shape = tuple(output_shape)
        self.max_batch = config.max_batch_size
        self._ctx = multiprocessing.get_context("fork")
        self._base = f"{SHM_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        self._runtime = runtime
        self._payload_dtype = np.dtype(
            np.float64 if config.quantized_bits is None
            else activation_dtype(config.quantized_bits))
        self.processes: List[object] = []
        self._req_rings: List[ShmRing] = []
        self._resp_ring: Optional[ShmRing] = None
        self._stats_seg = None
        self._stats_view: Optional[np.ndarray] = None
        self._stats_locks: List[object] = []
        self.stop_event = self._ctx.Event()
        self._out_elems = int(np.prod(self.output_shape))
        self._in_elems = int(np.prod(self.input_shape))
        self._cleaned = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ProcessWorkerPool":
        # Request layout: header | deadlines f8 | submits f8
        # [| per-sample scales f8, quantized mode] | activation payload
        # in the ring's payload dtype.  At int16 the payload — by far
        # the dominant term — shrinks 4x.
        stamp_bytes = 16 if self.config.quantized_bits is None else 24
        req_bytes = (_REQ_HEADER * 8 + self.max_batch * stamp_bytes
                     + self.max_batch * self._in_elems
                     * self._payload_dtype.itemsize)
        resp_bytes = (_RESP_HEADER * 8 + self.max_batch * 8
                      + max(self.max_batch * self._out_elems * 8,
                            _ERROR_MAX))
        for i in range(self.workers):
            ring = ShmRing.create(self._ctx, slots=2, slot_bytes=req_bytes,
                                  name=f"{self._base}_q{i}")
            ring.handle.payload_dtype = self._payload_dtype.str
            self._req_rings.append(ring)
        self._resp_ring = ShmRing.create(
            self._ctx, slots=2 * self.workers + 2, slot_bytes=resp_bytes,
            name=f"{self._base}_r")
        slice_len = _stats_slice_len(self.max_batch)
        self._stats_seg = create_segment(f"{self._base}_s",
                                         self.workers * slice_len * 8)
        self._stats_view = np.ndarray((self.workers, slice_len),
                                      dtype=np.float64,
                                      buffer=self._stats_seg.buf)
        self._stats_view[:] = 0.0
        empty = LatencyHistogram()
        for i in range(self.workers):
            # Seed each latency state as a valid empty histogram (min
            # must start at +inf, not 0) so early stats() merges are
            # correct before a worker's first publish.
            empty.write_state(
                self._stats_view[i, _N_COUNTERS + self.max_batch:])
        for i in range(self.workers):
            self._stats_locks.append(self._ctx.Lock())
            setup = _WorkerSetup(
                index=i,
                runtime=self._runtime,
                stats_name=f"{self._base}_s",
                stats_offset=i * slice_len,
                stats_len=slice_len,
            )
            process = self._ctx.Process(
                target=_worker_main,
                args=(setup, self._req_rings[i].handle,
                      self._resp_ring.handle, self._stats_locks[i],
                      self.stop_event),
                name=f"{self._base}-worker-{i}", daemon=True)
            process.start()
            self.processes.append(process)
        return self

    def alive(self) -> List[bool]:
        return [p.is_alive() for p in self.processes]

    # -- traffic -----------------------------------------------------------

    def dispatch(self, worker: int, batch_id: int, xs: np.ndarray,
                 deadlines: Sequence[float], submits: Sequence[float],
                 timeout: Optional[float] = None,
                 abort: Optional[Callable[[], bool]] = None) -> bool:
        """Write one stacked batch into a worker's request ring.

        In quantized mode the batch is quantized here — per-sample
        symmetric scales ride in an extra float64 block and the payload
        crosses the ring at the narrow integer dtype.
        """
        size = len(xs)
        header = np.array([MSG_BATCH, batch_id, size], dtype="<i8")
        chunks: List[object] = [header,
                                np.asarray(deadlines, dtype="<f8"),
                                np.asarray(submits, dtype="<f8")]
        if self.config.quantized_bits is not None:
            q, scales = quantize_batch(
                np.ascontiguousarray(xs, dtype=np.float64),
                self.config.quantized_bits)
            chunks.append(np.ascontiguousarray(scales, dtype="<f8"))
            chunks.append(np.ascontiguousarray(q))
        else:
            chunks.append(np.ascontiguousarray(xs, dtype=np.float64))
        return self._req_rings[worker].put(chunks, timeout=timeout,
                                           abort=abort)

    def send_stop(self, worker: int,
                  timeout: Optional[float] = 2.0) -> bool:
        header = np.array([MSG_STOP, 0, 0], dtype="<i8")
        return self._req_rings[worker].put([header], timeout=timeout)

    def recv(self, timeout: Optional[float] = None,
             abort: Optional[Callable[[], bool]] = None
             ) -> Optional[Response]:
        message = self._resp_ring.get(timeout=timeout, abort=abort)
        if message is None:
            return None
        kind, batch_id, worker, size, extra = (
            int(v) for v in np.frombuffer(message, "<i8",
                                          count=_RESP_HEADER))
        offset = _RESP_HEADER * 8
        statuses = np.frombuffer(message, "<i8", count=size, offset=offset)
        offset += 8 * size
        if kind == RESP_ERROR:
            error = message[offset:offset + extra].decode("utf-8", "replace")
            return Response(batch_id, worker, statuses, None, error)
        output = None
        if extra:
            output = np.frombuffer(
                message, "<f8", count=size * self._out_elems,
                offset=offset).reshape((size,) + self.output_shape)
        return Response(batch_id, worker, statuses, output, None)

    # -- stats -------------------------------------------------------------

    def worker_snapshots(self) -> List[dict]:
        """Per-worker stats copies: counters, block bytes, batch hist, latency."""
        snapshots = []
        for i in range(self.workers):
            with self._stats_locks[i]:
                row = self._stats_view[i].copy()
            snapshots.append(_read_snapshot(row, self.max_batch))
        return snapshots

    # -- teardown ----------------------------------------------------------

    def join(self, timeout: float = 5.0) -> None:
        """Join workers; escalate to terminate/kill so this never hangs."""
        self.stop_event.set()
        for process in self.processes:
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)

    def cleanup(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        if self._cleaned:
            return
        self._cleaned = True
        for ring in self._req_rings:
            ring.close()
        if self._resp_ring is not None:
            self._resp_ring.close()
        self._stats_view = None
        destroy_segment(self._stats_seg, unlink=True)
        self._stats_seg = None
