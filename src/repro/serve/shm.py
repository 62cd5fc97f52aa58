"""Shared-memory primitives for the multi-process serving runtime.

Two pieces, all stdlib + numpy:

* **Segment helpers** — :func:`create_segment` / :func:`attach_segment`
  wrap :class:`multiprocessing.shared_memory.SharedMemory` with the
  ownership discipline the pool relies on: the parent creates every
  segment under the ``rsrv_`` prefix and is the only process that ever
  unlinks; workers attach *untracked* so a worker exiting (or dying)
  never tears a segment out from under its siblings.  The ``rsrv_``
  prefix is load-bearing: the leak tests and the CI post-step scan
  ``/dev/shm`` for it.
* **Ring buffers** — :class:`ShmRing`, a fixed-slot bounded ring over a
  segment: each slot is ``[length header | payload bytes]``, flow
  control is a classic items/spaces semaphore pair, and per-slot ready
  flags make it safe for multiple producers (the response ring is
  written by every worker).  Messages are raw bytes composed by the
  caller — request/response activations cross the boundary as memcpys
  into slots, never through pickle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "RingHandle",
    "ShmRing",
    "attach_segment",
    "create_segment",
    "shm_prefix",
]

#: Every segment the serving runtime creates starts with this; leak
#: checks (tests and CI) scan /dev/shm for it.
SHM_PREFIX = "rsrv_"


def shm_prefix() -> str:
    """The ``/dev/shm`` name prefix used by the serving runtime."""
    return SHM_PREFIX


def create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create an owned segment (parent side; pair with close+unlink)."""
    return shared_memory.SharedMemory(name=name, create=True,
                                      size=max(int(size), 1))


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration.

    ``resource_tracker`` would otherwise register the segment again in
    the attaching process and unlink it when that process exits — which
    destroys a segment the parent and sibling workers still use (fixed
    upstream by ``track=False`` in 3.13).  The creator owns unlinking;
    attachers must not.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        # Suppress registration instead of unregistering afterwards:
        # the tracker keys by name, so an unregister here would cancel
        # the *creator's* registration too.
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def destroy_segment(segment: Optional[shared_memory.SharedMemory],
                    unlink: bool) -> None:
    """Best-effort close (and unlink, for the owner) of a segment."""
    if segment is None:
        return
    try:
        segment.close()
    except BufferError:
        # A numpy view still references the mapping; the file still
        # gets unlinked below, and the mapping dies with the process.
        pass
    except Exception:
        pass
    if unlink:
        try:
            segment.unlink()
        except Exception:
            pass


# -- ring buffer -------------------------------------------------------------


@dataclass
class RingHandle:
    """Everything a process needs to open a ring (Process-args picklable).

    The semaphores and locks are multiprocessing primitives: they cross
    to workers through ``Process`` args (fork or spawn), never through a
    plain pickle.
    """

    name: str
    slots: int
    slot_bytes: int
    items: object       # mp.Semaphore: filled slots
    spaces: object      # mp.Semaphore: free slots
    head_lock: object   # mp.Lock: consumer index
    tail_lock: object   # mp.Lock: producer index
    #: Advisory dtype of the activation payload carried in each slot
    #: ("<f8" float64, "<i2" int16, "<i1" int8 ...).  The ring itself is
    #: byte-level; producers and consumers agree on the layout through
    #: this field instead of hardcoding float64.
    payload_dtype: str = "<f8"


class ShmRing:
    """Bounded multi-producer ring of byte messages over shared memory.

    Layout: ``[head, tail] int64 | ready flags int64 x slots |
    slots x (int64 length | slot_bytes payload)``.  Producers acquire
    ``spaces``, claim the next tail slot under ``tail_lock``, memcpy the
    message, set the slot's ready flag, release ``items``.  The single
    consumer per ``get`` call acquires ``items``, takes the head slot
    under ``head_lock``, spins briefly if that slot's producer has not
    finished yet (possible when producers complete out of order), copies
    the message out, clears the flag and releases ``spaces``.

    ``put``/``get`` take a timeout plus an optional ``abort`` callable
    so shutdown never deadlocks on a full/empty ring.
    """

    def __init__(self, ctx, slots: int, slot_bytes: int, name: str,
                 create: bool, handle: Optional[RingHandle] = None) -> None:
        if handle is None:
            handle = RingHandle(name=name, slots=slots,
                                slot_bytes=int(slot_bytes),
                                items=ctx.Semaphore(0),
                                spaces=ctx.Semaphore(slots),
                                head_lock=ctx.Lock(),
                                tail_lock=ctx.Lock())
        self.handle = handle
        self._owner = create
        header = 16 + 8 * handle.slots
        self._slot_stride = 8 + handle.slot_bytes
        total = header + handle.slots * self._slot_stride
        if create:
            self._segment = create_segment(handle.name, total)
        else:
            self._segment = attach_segment(handle.name)
        self._ctrl = np.ndarray((2,), dtype=np.int64,
                                buffer=self._segment.buf)
        self._flags = np.ndarray((handle.slots,), dtype=np.int64,
                                 buffer=self._segment.buf, offset=16)
        self._data_off = header
        if create:
            self._ctrl[:] = 0
            self._flags[:] = 0

    @classmethod
    def create(cls, ctx, slots: int, slot_bytes: int, name: str) -> "ShmRing":
        return cls(ctx, slots, slot_bytes, name, create=True)

    @classmethod
    def attach(cls, handle: RingHandle) -> "ShmRing":
        return cls(None, handle.slots, handle.slot_bytes, handle.name,
                   create=False, handle=handle)

    # -- internals ---------------------------------------------------------

    def _slot(self, index: int) -> memoryview:
        start = self._data_off + index * self._slot_stride
        return self._segment.buf[start:start + self._slot_stride]

    @staticmethod
    def _acquire(semaphore, timeout: Optional[float],
                 abort: Optional[Callable[[], bool]]) -> bool:
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            slice_s = 0.1
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                slice_s = min(slice_s, remaining)
            if semaphore.acquire(timeout=slice_s):
                return True
            if abort is not None and abort():
                return False

    # -- API ---------------------------------------------------------------

    def put(self, chunks: Sequence[object], timeout: Optional[float] = None,
            abort: Optional[Callable[[], bool]] = None) -> bool:
        """Write one message (concatenated chunks); False on timeout/abort.

        Chunks are anything exposing a contiguous buffer — bytes or
        C-contiguous numpy arrays — copied straight into the slot.
        """
        views = [memoryview(chunk).cast("B") for chunk in chunks]
        length = sum(v.nbytes for v in views)
        if length > self.handle.slot_bytes:
            raise ValueError(f"message of {length} bytes exceeds slot size "
                             f"{self.handle.slot_bytes}")
        if not self._acquire(self.handle.spaces, timeout, abort):
            return False
        with self.handle.tail_lock:
            index = int(self._ctrl[1]) % self.handle.slots
            self._ctrl[1] += 1
        slot = self._slot(index)
        slot[:8] = int(length).to_bytes(8, "little")
        offset = 8
        for view in views:
            slot[offset:offset + view.nbytes] = view
            offset += view.nbytes
        self._flags[index] = 1
        self.handle.items.release()
        return True

    def get(self, timeout: Optional[float] = None,
            abort: Optional[Callable[[], bool]] = None) -> Optional[bytes]:
        """Pop one message as bytes; None on timeout/abort.

        A slot whose producer died mid-copy (ready flag never set) is
        skipped after a bounded spin rather than wedging the ring; the
        caller sees a ``None`` as if the ring were empty.
        """
        if not self._acquire(self.handle.items, timeout, abort):
            return None
        with self.handle.head_lock:
            index = int(self._ctrl[0]) % self.handle.slots
            # An out-of-order producer may still be copying into the
            # head slot; its flag flips the instant it finishes.
            poisoned_at = time.monotonic() + 1.0
            while not self._flags[index]:
                if time.monotonic() >= poisoned_at:
                    self._flags[index] = 0
                    self._ctrl[0] += 1
                    self.handle.spaces.release()
                    return None
                time.sleep(1e-5)
            slot = self._slot(index)
            length = int.from_bytes(slot[:8], "little")
            message = bytes(slot[8:8 + length])
            self._flags[index] = 0
            self._ctrl[0] += 1
        self.handle.spaces.release()
        return message

    def close(self) -> None:
        """Drop the mapping (and the file, when this side created it)."""
        # Views into the buffer must go before the segment can unmap.
        self._ctrl = None
        self._flags = None
        destroy_segment(self._segment, unlink=self._owner)
        self._segment = None
