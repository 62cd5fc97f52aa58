"""Core tracing primitives: spans, counters, gauges.

A :class:`Tracer` collects three kinds of signal:

* **Spans** — nested wall-time intervals with arbitrary metadata.
  Nesting is tracked *per thread* (each thread has its own span stack),
  so concurrent :class:`~repro.core.sweep.SweepEngine` workers produce
  correctly interleaved, independently rooted span trees.  Every span
  records its total duration and its *self* time (total minus the time
  spent in direct children), which is what the text profile ranks by.
* **Counters** — named monotonically accumulated numbers
  (``simcache.hits``, ``arena.misses``, ...).  ``count`` adds a delta.
* **Gauges** — named last-value-wins numbers (peak bytes, sizes).

Everything is thread-safe: records and counters are guarded by one
lock, span stacks are ``threading.local``.  The tracer never samples
and never touches the filesystem; exporting is a separate step
(:mod:`repro.obs.export`).

Timestamps come from ``time.perf_counter`` relative to the tracer's
construction, stored in microseconds — the unit Chrome-trace wants.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as stored by the tracer."""

    name: str
    start_us: float
    duration_us: float
    self_us: float
    thread_id: int
    depth: int
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


class Span:
    """A live span: a re-entrant-free context manager handle.

    Created by :meth:`Tracer.span`; finished (and recorded) on
    ``__exit__``.  ``annotate`` attaches metadata at any point before
    the span closes — handy when the interesting facts (chosen
    dataflow, cycle count) only exist at the end of the work.
    """

    __slots__ = ("_tracer", "name", "meta", "_start_us", "_child_us",
                 "_depth", "_parent", "_thread_id")

    def __init__(self, tracer: "Tracer", name: str,
                 meta: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.meta = meta
        self._child_us = 0.0
        self._parent: Optional[Span] = None
        self._depth = 0
        self._start_us = 0.0
        self._thread_id = 0

    def annotate(self, **meta: object) -> "Span":
        """Merge extra metadata into the span; returns ``self``."""
        self.meta.update(meta)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        self._thread_id = threading.get_ident()
        stack.append(self)
        self._start_us = self._tracer._now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_us = self._tracer._now_us() - self._start_us
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if self._parent is not None:
            self._parent._child_us += duration_us
        self._tracer._record(SpanRecord(
            name=self.name,
            start_us=self._start_us,
            duration_us=duration_us,
            self_us=max(0.0, duration_us - self._child_us),
            thread_id=self._thread_id,
            depth=self._depth,
            meta=self.meta,
        ))
        return False


class Tracer:
    """Thread-safe collector of spans, counters and gauges.

    ``max_spans`` bounds memory on pathological runs: past the cap new
    spans are still timed (children keep charging parents correctly)
    but their records are dropped and counted in ``dropped_spans``.
    """

    DEFAULT_MAX_SPANS = 1_000_000

    def __init__(self, max_spans: Optional[int] = DEFAULT_MAX_SPANS) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must be positive (or None)")
        self.max_spans = max_spans
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._local = threading.local()
        self.dropped_spans = 0

    # -- internal plumbing (used by Span) ---------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            if (self.max_spans is not None
                    and len(self._spans) >= self.max_spans):
                self.dropped_spans += 1
                return
            self._spans.append(record)

    # -- public API -------------------------------------------------------

    def span(self, name: str, **meta: object) -> Span:
        """Open a span; use as ``with tracer.span("x", k=v) as sp:``."""
        return Span(self, name, meta)

    def count(self, name: str, delta: float = 1) -> None:
        """Add ``delta`` to the named counter (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value."""
        with self._lock:
            self._gauges[name] = value

    @property
    def spans(self) -> List[SpanRecord]:
        """Snapshot of the finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    @property
    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def clear(self) -> None:
        """Drop all recorded signal (span stacks are left alone)."""
        with self._lock:
            self._spans.clear()
            self._counters.clear()
            self._gauges.clear()
            self.dropped_spans = 0
