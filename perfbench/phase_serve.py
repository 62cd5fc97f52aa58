"""The open-loop serving phase: seeded Poisson arrivals at fixed rates.

The benchmark's own generator sends each request when it is due,
whatever the server is doing, and every request is timed from its due
time to its completion, so a stall also charges the requests queued
behind it.

The server has one worker thread.  On a 2-vCPU host, two workers
contend for the GIL and for whichever vCPU the host slows at the
moment: their SqueezeNext capacity swung between 27 and 55 requests/s
from run to run, while one worker's stays near 25.  Three rates against
that capacity.  Latency medians stay off the queueing knee even when
the host slows the worker by a third, because the median request
still finds the worker free:

* light (4/s): about 15% busy, batches stay at about one request;
* heavy (7/s): about a quarter busy, requests coalesce and queue;
* overload (80/s): admission control sheds, and queued requests expire
  at the 250 ms latency limit.

One unit is one slice at one rate, the rates taking turns, so the
scheduler spreads each rate's slices over the whole run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from harness import Spans, check, median, quantile, tail
from repro.serve import DeadlineExceeded, QueueFull, Server, ServerConfig

#: Latency limit for the SLO share and the overload deadline.
LIMIT_MS = 250.0
#: A phase is invalid when the generator's p99 lateness exceeds this.
LATE_MARGIN_MS = 25.0
#: How long a drained request may take before the run gives up on it.
DRAIN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Rate:
    name: str
    rps: float
    slice_s: float
    deadline_ms: Optional[float] = None


RATES = (Rate("light", 4.0, 2.5), Rate("heavy", 7.0, 2.0),
         Rate("overload", 80.0, 1.5, deadline_ms=LIMIT_MS))


def server_config() -> ServerConfig:
    return ServerConfig(compiled=True, workers=1,
                        max_batch_size=8, max_wait_ms=2.0, queue_depth=32)


def start_server(net, spans: Spans) -> Server:
    with spans("serve.start"):
        return Server.for_network(net, server_config()).start()


@dataclass
class PhaseTally:
    sent: int = 0
    completed: int = 0
    rejected: int = 0
    expired: int = 0
    failed: int = 0
    within_limit: int = 0
    #: Seconds from each slice's start to its last completion, summed.
    busy_s: float = 0.0
    batches: int = 0
    batched: int = 0
    latency_ms: List[float] = field(default_factory=list)
    submit_us: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)


class ServePhase:
    kind = "serve"

    def __init__(self, server: Server, images: np.ndarray,
                 expected: Callable[[int], np.ndarray],
                 rng: np.random.Generator, spans: Spans,
                 slice_scale: float = 1.0) -> None:
        self.server = server
        self.images = images
        self.expected = expected
        self.rng = rng
        self.spans = spans
        self.slice_scale = slice_scale
        self.reset()

    def reset(self) -> None:
        """Forget every slice so far (after the warm-up slices)."""
        self.tally = {rate.name: PhaseTally() for rate in RATES}
        self.units = 0
        self.sent = 0

    def unit(self) -> None:
        rate = RATES[self.units % len(RATES)]
        with self.spans("serve.slice", phase=rate.name):
            self._slice(rate)
        self.units += 1

    def _slice(self, rate: Rate) -> None:
        tally = self.tally[rate.name]
        duration = rate.slice_s * self.slice_scale
        offsets = np.cumsum(self.rng.exponential(
            1.0 / rate.rps, size=int(rate.rps * duration * 3) + 8))
        offsets = offsets[offsets < duration]
        picks = self.rng.integers(len(self.images), size=len(offsets))
        before = self.server.stats()
        sent = []
        t0 = time.monotonic()
        for offset, pick in zip(offsets, picks):
            due = t0 + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            tally.late_ms.append((time.monotonic() - due) * 1e3)
            start = time.perf_counter()
            try:
                with self.spans("serve.submit"):
                    future = self.server.submit(
                        self.images[pick], deadline_ms=rate.deadline_ms)
            except QueueFull:
                tally.rejected += 1
                future = None
            tally.submit_us.append((time.perf_counter() - start) * 1e6)
            sent.append((due, int(pick), future))
        tally.sent += len(sent)
        self.sent += len(sent)
        last_done = t0
        latencies = []
        with self.spans("serve.drain"):
            for due, pick, future in sent:
                if future is None:
                    continue
                error = future.exception(timeout=DRAIN_TIMEOUT_S)
                if isinstance(error, DeadlineExceeded):
                    tally.expired += 1
                    continue
                if error is not None:
                    tally.failed += 1
                    continue
                latency_ms = (future.completed_at - due) * 1e3
                latencies.append(latency_ms)
                tally.within_limit += latency_ms <= LIMIT_MS
                last_done = max(last_done, future.completed_at)
                check(np.array_equal(future.result(), self.expected(pick)),
                      f"{rate.name}: served response differs from a direct "
                      f"compiled run")
        if latencies:
            tally.completed += len(latencies)
            tally.latency_ms.extend(latencies)
            tally.busy_s += last_done - t0
        after = self.server.stats()
        tally.batches += after.batches - before.batches
        tally.batched += after.completed - before.completed

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tally.values())

    def invalid_phases(self) -> List[str]:
        return [name for name, t in self.tally.items()
                if t.late_ms and quantile(t.late_ms, 0.99) > LATE_MARGIN_MS]

    def end_to_end(self) -> Dict[str, float]:
        # Latency medians and the overload throughput pool every request
        # of the run's slices, which are spread over the whole run: a
        # burst of host slowness weighs only on the requests it overlaps.
        heavy, overload = self.tally["heavy"], self.tally["overload"]
        return {
            "serve_light_p50_ms": median(self.tally["light"].latency_ms),
            "serve_heavy_p50_ms": median(heavy.latency_ms),
            "serve_heavy_slo_frac": heavy.within_limit / heavy.sent,
            "serve_overload_rps": overload.completed / overload.busy_s,
        }

    def per_layer(self, offline_b1_ms: float) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for name, t in self.tally.items():
            pct, tail_ms = tail(t.latency_ms)
            p = f"serve.{name}."
            metrics.update({
                p + "sent": t.sent,
                p + "completed": t.completed,
                p + "rejected_frac": t.rejected / t.sent,
                p + "expired": t.expired,
                p + "failed": t.failed,
                p + "submit_us": median(t.submit_us),
                p + "mean_batch": t.batched / t.batches if t.batches else 0.0,
                p + "overhead_ms": median(t.latency_ms) - offline_b1_ms,
                p + "tail_ms": tail_ms,
                p + "tail_pct": pct,
                p + "gen_late_p99_ms": quantile(t.late_ms, 0.99),
            })
        return metrics
