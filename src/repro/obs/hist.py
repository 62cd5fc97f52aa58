"""Fixed-bucket log-spaced latency histogram with percentile extraction.

A :class:`LatencyHistogram` records scalar observations (latencies,
durations, sizes — any positive quantity) into a fixed set of
log-spaced buckets and answers percentile queries (p50/p95/p99) by
linear interpolation inside the bucket that crosses the requested
rank.  The bucket layout is decided at construction and never grows,
so ``record`` is O(1), memory is bounded, and two histograms with the
same layout :meth:`merge` bucket-by-bucket — which is how per-worker
replicas aggregate into one :class:`~repro.serve.ServerStats` snapshot
without sharing mutable state across threads.

Percentiles from log buckets carry the bucket's relative width as
error (~``10**(1/buckets_per_decade)``); the default 24 buckets per
decade keeps that under ±5%, plenty for tail-latency reporting.  Exact
``count`` / ``sum`` / ``min`` / ``max`` are tracked alongside.

A histogram instance is **not** locked: give each producer thread its
own replica and merge at read time (the same discipline as
:class:`~repro.nn.infer.BufferArena` counters).
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Sequence, Tuple

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Log-spaced-bucket histogram over ``[low, high]``.

    ``low``/``high`` bound the resolvable range in whatever unit the
    caller records (the default ``1 .. 1e8`` covers 1µs..100s when
    recording microseconds).  Values outside the range still count —
    they land in the first/last bucket and in the exact min/max.
    """

    __slots__ = ("low", "high", "buckets_per_decade", "_edges", "_counts",
                 "count", "total", "min", "max")

    def __init__(self, low: float = 1.0, high: float = 1e8,
                 buckets_per_decade: int = 24) -> None:
        if low <= 0 or high <= low:
            raise ValueError("need 0 < low < high")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.low = float(low)
        self.high = float(high)
        self.buckets_per_decade = buckets_per_decade
        decades = math.log10(self.high / self.low)
        n = max(1, int(math.ceil(decades * buckets_per_decade)))
        ratio = 10.0 ** (1.0 / buckets_per_decade)
        # Upper edges of buckets 0..n; bucket i covers (edges[i-1], edges[i]]
        # with an implicit lower bound of 0 for bucket 0.  One extra
        # bucket past the last edge catches overflow.
        self._edges: List[float] = [self.low * ratio ** i
                                    for i in range(n + 1)]
        self._counts: List[int] = [0] * (n + 2)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording ---------------------------------------------------------

    def _bucket_index(self, value: float) -> int:
        if value > self._edges[-1]:
            return len(self._counts) - 1
        return bisect.bisect_left(self._edges, value)

    def record(self, value: float) -> None:
        """Record one observation (clamped into the bucket range).

        Nonpositive values are dropped: the histogram is for durations
        and sizes, where zero/negative means a measurement bug, and one
        such sample would wreck min/percentile clamping for the rest.
        """
        value = float(value)
        if value <= 0.0:
            return
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._counts[self._bucket_index(value)] += 1

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another replica (same layout) into this one; returns self."""
        if (other.low != self.low or other.high != self.high
                or other.buckets_per_decade != self.buckets_per_decade):
            raise ValueError("cannot merge histograms with different layouts")
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    # -- cross-process state -----------------------------------------------

    def state_len(self) -> int:
        """Length of the flat float64 state vector (:meth:`write_state`)."""
        return len(self._counts) + 4

    def write_state(self, out) -> None:
        """Serialize into a flat float64 buffer (a shared-memory slice).

        Layout: the bucket counts followed by ``count``, ``total``,
        ``min``, ``max``.  Counts are exact in float64 up to 2**53
        observations; ``min``/``max`` use ±inf when empty, which
        round-trips.  The worker processes of the serving runtime write
        their replica state this way and the parent folds it back with
        :meth:`merge_state` — the cross-process analogue of
        :meth:`merge`.
        """
        if len(out) != self.state_len():
            raise ValueError(
                f"state buffer holds {len(out)} values, layout needs "
                f"{self.state_len()}")
        n = len(self._counts)
        out[:n] = self._counts
        out[n] = float(self.count)
        out[n + 1] = self.total
        out[n + 2] = self.min
        out[n + 3] = self.max

    def merge_state(self, state) -> "LatencyHistogram":
        """Fold a :meth:`write_state` vector into this histogram.

        The layout check mirrors :meth:`merge`: a state vector of the
        wrong length (different bucket layout on the other side) is
        rejected instead of silently mis-binned.
        """
        if len(state) != self.state_len():
            raise ValueError(
                f"cannot merge state of length {len(state)} into layout "
                f"needing {self.state_len()}")
        n = len(self._counts)
        for i in range(n):
            self._counts[i] += int(state[i])
        self.count += int(state[n])
        self.total += float(state[n + 1])
        self.min = min(self.min, float(state[n + 2]))
        self.max = max(self.max, float(state[n + 3]))
        return self

    def copy(self) -> "LatencyHistogram":
        """An independent snapshot with the same layout and contents."""
        out = LatencyHistogram(self.low, self.high, self.buckets_per_decade)
        out._counts = list(self._counts)
        out.count = self.count
        out.total = self.total
        out.min = self.min
        out.max = self.max
        return out

    def since(self, earlier: "LatencyHistogram") -> "LatencyHistogram":
        """The observations recorded between ``earlier`` and now.

        Both histograms must share a layout and ``earlier`` must be a
        previous snapshot of the same (monotonically growing) series —
        cumulative lifetime histograms like the per-model latency
        replicas the serving runtime merges.  The delta is what an
        *online* consumer (the fleet's variant router) needs: lifetime
        percentiles never forget a breach, windowed ones do.

        The exact per-window min/max are not recoverable from bucket
        deltas, so they are approximated by the occupied buckets' edges
        (clamped to the lifetime extremes); percentile interpolation is
        unaffected beyond that clamping.
        """
        if (earlier.low != self.low or earlier.high != self.high
                or earlier.buckets_per_decade != self.buckets_per_decade):
            raise ValueError("cannot diff histograms with different layouts")
        out = LatencyHistogram(self.low, self.high, self.buckets_per_decade)
        for i, c in enumerate(self._counts):
            delta = c - earlier._counts[i]
            if delta < 0:
                raise ValueError(
                    "earlier snapshot is not a prefix of this histogram "
                    f"(bucket {i} shrank)")
            out._counts[i] = delta
        out.count = self.count - earlier.count
        out.total = self.total - earlier.total
        if out.count:
            occupied = [i for i, c in enumerate(out._counts) if c]
            first, last = occupied[0], occupied[-1]
            lo = self._edges[first - 1] if first > 0 else 0.0
            hi = (self._edges[last] if last < len(self._edges)
                  else self.max)
            out.min = max(lo, self.min)
            out.max = min(max(hi, out.min), self.max)
        return out

    # -- queries -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (0 < q <= 100), interpolated in-bucket.

        Clamped to the exact observed ``[min, max]`` so a histogram of
        identical values answers that value for every q.
        """
        if not 0.0 < q <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        seen = 0
        for i, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                if i < len(self._edges):
                    lo = self._edges[i - 1] if i > 0 else 0.0
                    hi = self._edges[i]
                else:  # overflow bucket: bounded by the exact max
                    lo = self._edges[-1]
                    hi = self.max
                fraction = (rank - seen) / bucket_count
                value = lo + (hi - lo) * fraction
                return min(max(value, self.min), self.max)
            seen += bucket_count
        return self.max

    def percentiles(self, qs: Sequence[float] = (50.0, 95.0, 99.0)
                    ) -> Tuple[float, ...]:
        """Several percentiles at once, in the order requested."""
        return tuple(self.percentile(q) for q in qs)

    def summary(self) -> Dict[str, float]:
        """The snapshot dict reports embed: count/mean/min/max/p50/95/99."""
        p50, p95, p99 = self.percentiles()
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    def __repr__(self) -> str:
        if not self.count:
            return "LatencyHistogram(empty)"
        p50, p95, p99 = self.percentiles()
        return (f"LatencyHistogram(count={self.count}, p50={p50:.3g}, "
                f"p95={p95:.3g}, p99={p99:.3g})")
