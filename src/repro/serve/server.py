"""The serving runtime: bounded queue, dynamic batcher, worker pool.

:class:`Server` turns individual embedded-vision queries into batched
runs of an :class:`~repro.nn.infer.InferencePlan`'s compiled programs
(:mod:`repro.nn.compile`):

* **Admission control** — a bounded stdlib queue.  When it is full,
  ``submit`` raises :class:`~repro.serve.QueueFull` *synchronously*
  instead of growing memory; callers shed or retry.  Per-request
  deadlines expire work that waited too long in the queue (the request
  fails with :class:`~repro.serve.DeadlineExceeded` at dequeue time —
  it is never executed, and never silently dropped).
* **Dynamic batching** — a worker that dequeues a request keeps
  coalescing until it holds ``max_batch_size`` requests or
  ``max_wait_ms`` has passed since the first one, then stacks the
  inputs and runs the batch's compiled program once.  Under load,
  batches fill instantly and the wait never triggers; at low load a
  request pays at most ``max_wait_ms`` extra latency.
* **Worker pool** — two backends behind one knob
  (``ServerConfig.worker_mode``):

  Either way the server builds one
  :class:`~repro.serve.procpool.WorkerRuntime` (quantized as
  configured, then compiled) and every worker runs a clone of it,
  sharing its compiled programs and binding one static block, sized
  for the largest compiled batch, that every batch program of that
  worker runs in.

  - ``"thread"`` (default): each worker thread owns a clone and
    publishes its tallies as a snapshot after each batch.  Right
    choice for simulator-paced runs (workers mostly sleep) and
    bit-for-bit reproducible CI.
  - ``"process"``: numpy inference holds the GIL, so thread workers
    *contend* instead of scaling on real host compute.  Process mode
    forks worker processes that clone the inherited runtime (its
    programs stay shared copy-on-write; :mod:`repro.serve.procpool`)
    and moves batches over pickle-free shared-memory rings.
    Admission control and the dynamic batcher stay in the parent;
    responses remain bit-identical to a direct compiled run.

* **Graceful shutdown** — ``shutdown()`` stops admissions, then (by
  default) drains: queued requests are still executed, workers finish
  their in-flight batches and are joined.  ``drain=False`` cancels
  queued requests with :class:`~repro.serve.ServerClosed` instead.
  Either way every accepted request is completed, and process mode
  additionally unlinks every shared-memory segment it created — even
  when a worker process was killed mid-batch.

All timestamps (deadlines, latencies) use ``time.monotonic()``, which
is documented system-wide on Linux/Windows/macOS (Python 3.10+), so a
deadline stamped at submit time remains comparable inside a worker
process; ``time.perf_counter()`` offers no cross-process guarantee.

An optional ``service_time`` model (see
:func:`repro.serve.accelerator_service_time`) paces each batch to the
cycle count the simulated Squeezelerator would need, turning the
server into a what-would-the-accelerator-sustain testbench.
"""

from __future__ import annotations

import math
import multiprocessing
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.nn.infer import InferencePlan
from repro.obs.hist import LatencyHistogram
from repro.serve.procpool import STATUS_EXPIRED, ProcessWorkerPool, \
    WorkerRuntime
from repro.serve.request import (
    DeadlineExceeded,
    PendingResponse,
    QueueFull,
    ServeError,
    ServerClosed,
    WorkerCrashed,
)

__all__ = ["Server", "ServerConfig", "ServerStats"]

@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`Server`.

    ``max_wait_ms`` bounds how long the *first* request of a batch
    waits for company; ``queue_depth`` bounds admission (the memory
    ceiling is ``queue_depth + workers * max_batch_size`` requests);
    ``default_deadline_ms`` applies to requests submitted without an
    explicit deadline (``None`` = no deadline).  ``service_time`` maps
    a batch size to the seconds the batch *should* take — workers sleep
    out the difference after computing, pacing the server to a modelled
    accelerator.

    ``worker_mode`` picks the pool backend: ``"thread"`` (default;
    bit-identical, right for sim-paced runs) or ``"process"``
    (GIL-free scaling on host compute; see the module docstring for
    the decision guide).  Process workers are forked, so
    ``"process"`` needs a platform with the ``fork`` start method.

    Workers always run the plan through
    :func:`repro.nn.compile.compile_plan`: batch sizes 1 and
    ``max_batch_size`` compile eagerly, other coalesced sizes compile
    on first use.  Each worker binds one static block, sized for its
    largest compiled batch, and ``stats().arena["held_bytes"]`` sums
    those blocks.  ``compiled`` stays for callers that pass
    ``compiled=True``; ``compiled=False`` raises ``ValueError``.
    ``warmup`` (default on) runs one dummy batch through every worker
    at start so the first real request pays no bind cold-start.

    ``quantized_bits`` (e.g. ``16``) serves through a
    :class:`~repro.nn.quant.QuantizedInferencePlan`: workers run the
    compiled integer program over the server's one quantized lowering
    of the plan, and in process mode the request rings carry
    int16/int8 payloads plus per-sample scales instead of float64.
    """

    workers: int = 2
    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    queue_depth: int = 64
    default_deadline_ms: Optional[float] = None
    service_time: Optional[Callable[[int], float]] = None
    worker_mode: str = "thread"
    compiled: bool = True
    warmup: bool = True
    quantized_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if (self.default_deadline_ms is not None
                and self.default_deadline_ms <= 0):
            raise ValueError("default_deadline_ms must be positive")
        if self.worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', "
                f"got {self.worker_mode!r}")
        if (self.worker_mode == "process"
                and "fork" not in multiprocessing.get_all_start_methods()):
            raise ValueError(
                "process workers are forked from the server, and this "
                "platform has no 'fork' start method; use "
                "worker_mode='thread'")
        if not self.compiled:
            raise ValueError("workers always run compiled programs; "
                             "compiled=False is not supported")
        if self.quantized_bits is not None:
            if not 2 <= self.quantized_bits <= 16:
                raise ValueError("quantized_bits must be in [2, 16]")


@dataclass(frozen=True)
class ServerStats:
    """A point-in-time snapshot of one server's behaviour.

    Counters cover the server's whole lifetime; ``latency`` percentiles
    are end-to-end (submit to completion) over *completed* requests,
    merged from the per-worker histogram replicas — across threads in
    thread mode, across processes (via shared-memory state vectors) in
    process mode.  ``arena["held_bytes"]`` sums the static blocks the
    workers had bound at their last snapshot.
    """

    accepted: int
    rejected_queue_full: int
    expired: int
    cancelled: int
    completed: int
    failed: int
    queue_depth: int
    batches: int
    batch_size_hist: Dict[int, int]
    latency_ms: Dict[str, float]
    arena: Dict[str, int]
    elapsed_s: float
    throughput_rps: float
    worker_mode: str = "thread"

    @property
    def mean_batch_size(self) -> float:
        return self.completed / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (benchmarks persist this)."""
        return {
            "worker_mode": self.worker_mode,
            "accepted": self.accepted,
            "rejected_queue_full": self.rejected_queue_full,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "completed": self.completed,
            "failed": self.failed,
            "queue_depth": self.queue_depth,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_size_hist": {str(k): v for k, v in
                                sorted(self.batch_size_hist.items())},
            "latency_ms": {k: round(v, 3) for k, v in
                           self.latency_ms.items()},
            "arena": dict(self.arena),
            "elapsed_s": round(self.elapsed_s, 3),
            "throughput_rps": round(self.throughput_rps, 2),
        }


class _WorkItem:
    """One queued request: payload, future, and its deadline."""

    __slots__ = ("x", "response", "deadline_at")

    def __init__(self, x: np.ndarray, response: PendingResponse,
                 deadline_at: Optional[float]) -> None:
        self.x = x
        self.response = response
        self.deadline_at = deadline_at

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now > self.deadline_at


_SENTINEL = None  # queue poison pill; one per consumer at shutdown


class _Worker:
    """One thread-pool member: its runtime and the last snapshot it published.

    Only the worker thread touches the runtime (its static block is
    thread-local); ``Server.stats()`` reads ``snapshot``, swapped under
    ``lock`` after warm-up and after each batch (``None`` until then).
    """

    def __init__(self, runtime: WorkerRuntime) -> None:
        self.runtime = runtime
        self.thread: Optional[threading.Thread] = None
        self.lock = threading.Lock()
        self.snapshot: Optional[dict] = None

    def publish(self) -> None:
        snapshot = self.runtime.snapshot()
        with self.lock:
            self.snapshot = snapshot


class Server:
    """Dynamic-batching inference server over an :class:`InferencePlan`.

    Use as a context manager (``with Server(plan, input_shape=shape) as
    srv:``) or call :meth:`start` / :meth:`shutdown` explicitly; the
    per-sample ``input_shape`` is required (:meth:`for_network` passes
    it).  Requests are single images shaped ``(C, H, W)``; responses
    are that request's slice of the batched output — bit-identical to
    running the plan's compiled program on the single-image batch
    directly, in both worker modes.
    """

    def __init__(self, plan: InferencePlan,
                 config: Optional[ServerConfig] = None,
                 input_shape: Optional[Tuple[int, int, int]] = None,
                 name: str = "server") -> None:
        if input_shape is None:
            raise ValueError(
                "workers run programs compiled for one input shape; "
                "pass input_shape= (Server.for_network does)")
        self.config = config or ServerConfig()
        self.name = name
        self.input_shape = tuple(input_shape)
        self._plan = plan
        self._queue: "queue.Queue[Optional[_WorkItem]]" = queue.Queue(
            maxsize=self.config.queue_depth)
        # One shared (quantized, compiled) lowering of the plan; worker
        # clones — threads here, forked processes at start() — share
        # its immutable programs and bind one static block each.  It
        # serves no batch itself, so forking copies no block.
        self._runtime = WorkerRuntime(plan, self.config, self.input_shape)
        self._workers: List[_Worker] = []
        if self.config.worker_mode == "thread":
            self._workers = [_Worker(self._runtime.clone(i))
                             for i in range(self.config.workers)]
        # Guards the lifecycle flags and the submit-side counters; also
        # serializes submits against shutdown so no request can slip
        # into the queue behind the poison pills.
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._joined = False
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        self._accepted = 0
        self._rejected_queue_full = 0
        self._cancelled = 0
        self._queue_expired = 0  # expired before reaching a worker
        # -- process-mode state -------------------------------------------
        self._procpool: Optional[ProcessWorkerPool] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._collector: Optional[threading.Thread] = None
        self._collector_stop = threading.Event()
        self._pending: Dict[int, Tuple[int, List[_WorkItem]]] = {}
        self._pending_lock = threading.Lock()
        self._next_batch_id = 0
        self._round_robin = 0
        self._dead_workers: set = set()
        self._parent_failed = 0  # dead-worker batches (under self._lock)
        self._final_snapshots: Optional[List[dict]] = None

    @classmethod
    def for_network(cls, net, config: Optional[ServerConfig] = None,
                    name: Optional[str] = None) -> "Server":
        """Build a server from a :class:`~repro.nn.GraphNetwork`.

        Compiles the fused inference plan and remembers the spec's
        input shape for submit-time validation.
        """
        shape = net.spec.input_shape
        return cls(net.inference_plan(),
                   config=config,
                   input_shape=(shape.channels, shape.height, shape.width),
                   name=name or net.spec.name)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Server":
        """Spawn the worker pool; idempotent until shutdown."""
        with self._lock:
            if self._closed:
                raise ServerClosed(f"server {self.name!r} already shut down")
            if self._started:
                return self
            self._started = True
            self._started_at = time.monotonic()
        if self.config.worker_mode == "process":
            self._start_process_pool()
        else:
            for worker in self._workers:
                thread = threading.Thread(
                    target=self._worker_loop, args=(worker,),
                    name=f"{self.name}-worker-{worker.runtime.index}",
                    daemon=True)
                worker.thread = thread
                thread.start()
        return self

    def _start_process_pool(self) -> None:
        # The compiled program fixes the response ring's output shape;
        # reading it binds no block in the runtime the workers fork.
        output_shape = self._runtime.executor.program(1).output_shape
        self._procpool = ProcessWorkerPool(self._runtime,
                                           output_shape).start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"{self.name}-dispatch",
            daemon=True)
        self._collector = threading.Thread(
            target=self._collect_loop, name=f"{self.name}-collect",
            daemon=True)
        self._dispatcher.start()
        self._collector.start()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    @property
    def running(self) -> bool:
        return self._started and not self._closed

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the server; never drops an accepted request.

        ``drain=True`` (default) executes everything already queued
        before stopping; ``drain=False`` cancels queued requests with
        :class:`ServerClosed` (their futures raise — loudly, not
        silently).  Workers always finish their in-flight batch and
        are joined; process mode also closes and unlinks every
        shared-memory segment.  Idempotent.
        """
        with self._lock:
            if self._closed:
                drain_items: List[_WorkItem] = []
                already = True
            else:
                self._closed = True
                already = False
                drain_items = []
                if not drain:
                    while True:
                        try:
                            item = self._queue.get_nowait()
                        except queue.Empty:
                            break
                        if item is not _SENTINEL:
                            drain_items.append(item)
                self._cancelled += len(drain_items)
        for item in drain_items:
            item.response._fail(ServerClosed(
                f"server {self.name!r} shut down before execution"))
            obs.count("serve.cancelled")
        if already or not self._started:
            with self._lock:
                self._joined = True
                if self._stopped_at is None:
                    self._stopped_at = time.monotonic()
            return
        if self.config.worker_mode == "process":
            self._shutdown_process_pool(timeout)
        else:
            # Poison pills ride behind every already-accepted request,
            # so drain mode processes the whole queue before any worker
            # exits.
            for _ in self._workers:
                self._queue.put(_SENTINEL)
            for worker in self._workers:
                if worker.thread is not None:
                    worker.thread.join(timeout)
        with self._lock:
            self._joined = True
            self._stopped_at = time.monotonic()
        # Defensive: the queue must be empty now.  Anything left (a
        # worker died, a join timed out) is failed, not dropped.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SENTINEL:
                item.response._fail(ServerClosed(
                    f"server {self.name!r} stopped with request unserved"))
                with self._lock:
                    self._cancelled += 1

    def _shutdown_process_pool(self, timeout: Optional[float]) -> None:
        join_s = 10.0 if timeout is None else timeout
        # One sentinel: the dispatcher is the queue's only consumer.
        # It dispatches everything already queued, then STOPs workers.
        self._queue.put(_SENTINEL)
        if self._dispatcher is not None:
            self._dispatcher.join(join_s)
        self._procpool.join(join_s)
        self._collector_stop.set()
        if self._collector is not None:
            self._collector.join(join_s)
        # Anything still pending lost its worker (killed, or a join
        # timed out): fail loudly, never silently.
        with self._pending_lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for _, items in leftovers:
            for item in items:
                item.response._fail(ServerClosed(
                    f"server {self.name!r} stopped with request unserved"))
            with self._lock:
                self._cancelled += len(items)
        # Final stats outlive the segments they were mirrored in.
        self._final_snapshots = self._procpool.worker_snapshots()
        self._procpool.cleanup()

    # -- submission --------------------------------------------------------

    def submit(self, x: np.ndarray,
               deadline_ms: Optional[float] = None) -> PendingResponse:
        """Enqueue one ``(C, H, W)`` image; returns its future.

        Raises :class:`QueueFull` when the bounded queue is at
        capacity and :class:`ServerClosed` when the server is not
        accepting work.  ``deadline_ms`` (or the config default)
        starts counting now; if the request is still queued when it
        lapses, its future fails with :class:`DeadlineExceeded`.
        """
        x = np.asarray(x)
        if x.ndim != 3:
            raise ValueError(
                f"requests are single images (C, H, W); got shape {x.shape}")
        if x.shape != self.input_shape:
            raise ValueError(
                f"request shape {x.shape} does not match model input "
                f"{self.input_shape}")
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        response = PendingResponse()
        deadline_at = (response.submitted_at + deadline_ms / 1e3
                       if deadline_ms is not None else None)
        item = _WorkItem(x, response, deadline_at)
        with self._lock:
            if not self._started or self._closed:
                raise ServerClosed(f"server {self.name!r} is not accepting "
                                   f"requests")
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                self._rejected_queue_full += 1
                obs.count("serve.rejected.queue_full")
                raise QueueFull(
                    f"server {self.name!r} queue at capacity "
                    f"({self.config.queue_depth})") from None
            self._accepted += 1
        obs.count("serve.accepted")
        return response

    def infer(self, x: np.ndarray, deadline_ms: Optional[float] = None,
              timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous convenience wrapper: submit and wait."""
        return self.submit(x, deadline_ms=deadline_ms).result(timeout)

    # -- batching (shared by thread workers and the dispatcher) ------------

    def _expire(self, item: _WorkItem) -> None:
        # Count before failing, so stats() read after the future
        # resolves already includes it.
        with self._lock:
            self._queue_expired += 1
        item.response._fail(DeadlineExceeded(
            f"deadline expired after "
            f"{(time.monotonic() - item.response.submitted_at) * 1e3:.1f}"
            f"ms in queue"))
        obs.count("serve.expired")

    def _collect_batch(self,
                       first: _WorkItem) -> Tuple[List[_WorkItem], bool]:
        """Coalesce up to max_batch_size items or max_wait_ms of waiting.

        Returns the batch and whether a poison pill was consumed (the
        consumer must exit after handling the batch).
        """
        batch = [first]
        stop = False
        wait_until = time.monotonic() + self.config.max_wait_ms / 1e3
        while len(batch) < self.config.max_batch_size:
            remaining = wait_until - time.monotonic()
            if remaining <= 0:
                break
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _SENTINEL:
                stop = True
                break
            if item.expired(time.monotonic()):
                self._expire(item)
                continue
            batch.append(item)
        return batch, stop

    # -- the thread worker loop --------------------------------------------

    def _execute(self, worker: _Worker, batch: List[_WorkItem]) -> None:
        try:
            out = worker.runtime.run(
                [item.x for item in batch],
                [item.response.submitted_at for item in batch])
        except BaseException as error:  # noqa: BLE001 - forwarded to callers
            worker.publish()
            for item in batch:
                item.response._fail(error)
            obs.count("serve.failed", len(batch))
            return
        # Publish before completing, so a stats() read triggered by a
        # resolved future already sees this batch counted.
        worker.publish()
        # Hand each caller its own copy so responses never alias the
        # batch output (or each other).
        for i, item in enumerate(batch):
            item.response._complete(out[i].copy())
        obs.count("serve.completed", len(batch))

    def _worker_loop(self, worker: _Worker) -> None:
        worker.runtime.warm_up()
        worker.publish()
        try:
            while True:
                item = self._queue.get()
                if item is _SENTINEL:
                    return
                if item.expired(time.monotonic()):
                    self._expire(item)
                    continue
                batch, stop = self._collect_batch(item)
                self._execute(worker, batch)
                if stop:
                    return
        finally:
            worker.publish()

    # -- the process-mode parent threads -----------------------------------

    def _dispatch_loop(self) -> None:
        """Dequeue, coalesce, and round-robin batches into worker rings."""
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                break
            if item.expired(time.monotonic()):
                self._expire(item)
                continue
            batch, stop = self._collect_batch(item)
            self._dispatch_batch(batch)
            if stop:
                break
        for index in range(self._procpool.workers):
            if self._procpool.processes[index].is_alive():
                self._procpool.send_stop(index, timeout=5.0)

    def _fail_batch(self, batch: List[_WorkItem],
                    error: BaseException) -> None:
        with self._lock:
            self._parent_failed += len(batch)
        for item in batch:
            item.response._fail(error)
        obs.count("serve.failed", len(batch))

    def _dispatch_batch(self, batch: List[_WorkItem]) -> None:
        pool = self._procpool
        xs = np.stack([item.x for item in batch]).astype(
            np.float64, copy=False)
        deadlines = [item.deadline_at if item.deadline_at is not None
                     else math.nan for item in batch]
        submits = [item.response.submitted_at for item in batch]
        with self._pending_lock:
            batch_id = self._next_batch_id
            self._next_batch_id += 1
        while True:
            alive = pool.alive()
            candidates = [w for w in range(pool.workers)
                          if alive[w] and w not in self._dead_workers]
            if not candidates:
                self._fail_batch(batch, WorkerCrashed(
                    f"server {self.name!r} has no live worker processes"))
                return
            worker = candidates[self._round_robin % len(candidates)]
            self._round_robin += 1
            with self._pending_lock:
                self._pending[batch_id] = (worker, batch)
            if pool.dispatch(worker, batch_id, xs, deadlines, submits,
                             timeout=0.25):
                obs.count("serve.dispatched", len(batch))
                return
            # Ring full (worker busy) or worker gone — try the next one.
            with self._pending_lock:
                self._pending.pop(batch_id, None)

    def _collect_loop(self) -> None:
        """Complete futures from the response ring; reap dead workers."""
        pool = self._procpool
        while True:
            response = pool.recv(timeout=0.1)
            if response is not None:
                self._complete_response(response)
                continue
            self._reap_dead_workers()
            if self._collector_stop.is_set():
                while True:  # final non-blocking drain
                    response = pool.recv(timeout=0.05)
                    if response is None:
                        break
                    self._complete_response(response)
                return

    def _complete_response(self, response) -> None:
        with self._pending_lock:
            entry = self._pending.pop(response.batch_id, None)
        if entry is None:
            return  # already failed by dead-worker reaping
        _, batch = entry
        if response.error is not None:
            error = ServeError(
                f"worker process {response.worker} failed the batch:\n"
                f"{response.error}")
            for item in batch:
                item.response._fail(error)
            obs.count("serve.failed", len(batch))
            return
        delivered = 0
        for i, item in enumerate(batch):
            if response.statuses[i] == STATUS_EXPIRED:
                item.response._fail(DeadlineExceeded(
                    "deadline expired in the worker process before "
                    "execution"))
                obs.count("serve.expired")
            else:
                item.response._complete(response.output[i].copy())
                delivered += 1
        if delivered:
            obs.count("serve.completed", delivered)

    def _reap_dead_workers(self) -> None:
        pool = self._procpool
        alive = pool.alive()
        for index in range(pool.workers):
            if alive[index] or index in self._dead_workers:
                continue
            with self._pending_lock:
                self._dead_workers.add(index)
                doomed = [(bid, items) for bid, (w, items)
                          in self._pending.items() if w == index]
                for bid, _ in doomed:
                    del self._pending[bid]
            for _, items in doomed:
                self._fail_batch(items, WorkerCrashed(
                    f"worker process {index} died with the batch in "
                    f"flight"))
            obs.count("serve.worker_crashed")

    # -- telemetry ---------------------------------------------------------

    def _worker_snapshots(self) -> List[dict]:
        """The latest :meth:`WorkerRuntime.snapshot` of every worker."""
        if self._final_snapshots is not None:
            return self._final_snapshots
        if self._procpool is not None:
            return self._procpool.worker_snapshots()
        snapshots = []
        for worker in self._workers:
            with worker.lock:
                if worker.snapshot is not None:
                    snapshots.append(worker.snapshot)
        return snapshots

    def latency_histogram(self) -> LatencyHistogram:
        """A merged snapshot of the per-worker latency replicas.

        Unlike :meth:`stats` this returns the raw cumulative histogram
        (microseconds), which is what an online consumer — the fleet's
        variant router — needs: successive snapshots can be diffed
        (:meth:`~repro.obs.LatencyHistogram.since`) into windowed tail
        percentiles, where ``stats()`` only exposes lifetime ones.
        """
        latency = LatencyHistogram()
        for snap in self._worker_snapshots():
            latency.merge_state(snap["latency_state"])
        return latency

    def stats(self) -> ServerStats:
        """Merge server counters and per-worker snapshots into a snapshot."""
        latency = LatencyHistogram()
        batches = completed = failed = expired = 0
        batch_size_hist: Dict[int, int] = {}
        snapshots = self._worker_snapshots()
        for snap in snapshots:
            batches += snap["batches"]
            completed += snap["completed"]
            failed += snap["failed"]
            expired += snap["expired"]
            for size_index, count in enumerate(snap["batch_hist"]):
                if count:
                    size = size_index + 1
                    batch_size_hist[size] = (
                        batch_size_hist.get(size, 0) + int(count))
            latency.merge_state(snap["latency_state"])
        arena = {"held_bytes": sum(snap["held_bytes"] for snap in snapshots)}
        with self._lock:
            expired += self._queue_expired
            failed += self._parent_failed
            accepted = self._accepted
            rejected = self._rejected_queue_full
            cancelled = self._cancelled
            started_at = self._started_at
            stopped_at = self._stopped_at
        end = stopped_at if stopped_at is not None else time.monotonic()
        elapsed = max(end - started_at, 1e-9) if started_at else 0.0
        summary = latency.summary()
        latency_ms = {key: summary[key] / 1e3
                      for key in ("mean", "min", "max", "p50", "p95", "p99")}
        latency_ms["count"] = summary["count"]
        obs.gauge("serve.queue_depth", self._queue.qsize())
        return ServerStats(
            accepted=accepted,
            rejected_queue_full=rejected,
            expired=expired,
            cancelled=cancelled,
            completed=completed,
            failed=failed,
            queue_depth=self._queue.qsize(),
            batches=batches,
            batch_size_hist=batch_size_hist,
            latency_ms=latency_ms,
            arena=arena,
            elapsed_s=elapsed,
            throughput_rps=completed / elapsed if elapsed else 0.0,
            worker_mode=self.config.worker_mode,
        )
