"""One benchmark run: set-up, the interleaved measurement loop, checks.

Every workload runs the same three phases, interleaved unit by unit so
that host drift hits every metric alike; a workload sets the share of
the run each phase gets:

* ``sweep``: the paper's design-space sweep on the simulator
  (:mod:`phase_sweep`);
* ``infer``: batch-1 offline inference on five executors
  (:mod:`phase_infer`);
* ``serve``: open-loop Poisson serving at three rates
  (:mod:`phase_serve`).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

import numpy as np

from harness import Scheduler, Spans, median
from phase_infer import InferPhase, build_runtimes
from phase_serve import RATES, ServePhase, start_server
from phase_sweep import SweepPhase, sweep_engine
from repro.core import CoDesignLoop
from repro.models import build_all, squeezenet_v1_0

#: Every phase runs at least this many units, however short the run:
#: one slice of each serving rate.
MIN_UNITS = 3
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


class Bench:
    """One run: set-up, the interleaved measurement loop, the checks."""

    def __init__(self, args, shares: dict, workdir: Path) -> None:
        self.sweep: Optional[SweepPhase] = None
        self.infer: Optional[InferPhase] = None
        self.serve: Optional[ServePhase] = None
        self.args = args
        self.shares = shares
        self.workdir = workdir
        self.spans = Spans(enabled=bool(args.trace))
        self.server = None
        self.expected_cache = {}
        self.units: dict = {}
        self.overhead: dict = {}

    def set_up(self) -> None:
        """Build everything ``SETUP_REPEATS`` times; keep the last."""
        repeats = 1 if self.args.tiny else SETUP_REPEATS
        setups, layer_ms = [], {}
        for _ in range(repeats):
            if self.server is not None:
                self.server.shutdown()
            start = time.perf_counter()
            parts = self._build()
            setups.append(time.perf_counter() - start)
            for name, ms in parts.items():
                layer_ms.setdefault(name, []).append(ms)
        self.setup_s = median(setups)
        self.setup_ms = {name: median(v) for name, v in layer_ms.items()}

    def _build(self) -> dict:
        rng = np.random.default_rng(self.args.seed)
        start = time.perf_counter()
        with self.spans("models.build", model="zoo"):
            zoo = build_all()
        zoo_ms = (time.perf_counter() - start) * 1e3
        self.sweep = SweepPhase(zoo, rng, self.workdir, self.spans,
                                self.args.tiny)
        runtimes, parts = build_runtimes(self.args.tiny, self.spans)
        parts["models.build_ms"] += zoo_ms
        self.infer = InferPhase(runtimes, rng, self.spans)
        start = time.perf_counter()
        self.server = start_server(runtimes["squeezenext"].net, self.spans)
        parts["serve.start_ms"] = (time.perf_counter() - start) * 1e3
        self.serve = ServePhase(
            self.server, self.infer.images["squeezenext"], self._expected,
            rng, self.spans, slice_scale=0.5 if self.args.tiny else 1.0)
        return parts

    def _expected(self, pick: int):
        """Direct compiled batch-1 output for serving image ``pick``."""
        if pick not in self.expected_cache:
            runtime = self.infer.runtimes["squeezenext"]
            x = self.infer.images["squeezenext"][pick:pick + 1]
            self.expected_cache[pick] = np.array(
                runtime.compiled.run(x)[0], copy=True)
        return self.expected_cache[pick]

    def warm_up(self) -> None:
        """Fill lazy state (arenas, per-batch programs) before timing."""
        self.infer.warm_up()
        # The serving worker binds each batch size's program on first
        # use; one slice of each rate (the overload slice fills batches
        # of up to eight) moves most of that out of the measurement.
        for _ in range(len(RATES)):
            self.serve.unit()
        self.serve.reset()

    def measure(self) -> None:
        phases = {p.kind: p for p in (self.sweep, self.infer, self.serve)}
        scheduler = Scheduler(self.shares, self.args.seconds, MIN_UNITS)
        traced = {kind: [] for kind in phases}
        untraced = {kind: [] for kind in phases}
        tracer = self.spans.tracer
        while (kind := scheduler.next_kind()) is not None:
            # A traced run alternates traced and untraced units of each
            # kind, so the tracing overhead is measured in the same run.
            on = tracer is not None and scheduler.units[kind] % 2 == 0
            self.spans.tracer = tracer if on else None
            start = time.perf_counter()
            with self.spans(f"bench.unit.{kind}"):
                phases[kind].unit()
            elapsed = time.perf_counter() - start
            scheduler.record(kind, elapsed)
            (traced if on else untraced)[kind].append(elapsed)
        self.spans.tracer = tracer
        self.units = dict(scheduler.units)
        self.overhead = {
            kind: median(traced[kind]) / median(untraced[kind])
            for kind in ("sweep", "infer")
            if traced[kind] and untraced[kind]}

    def codesign_ms(self) -> float:
        start = time.perf_counter()
        with self.spans("core.codesign.loop"):
            CoDesignLoop(squeezenet_v1_0(), engine=sweep_engine(None)).run()
        return (time.perf_counter() - start) * 1e3

    def end_to_end(self) -> dict:
        return {"setup_s": self.setup_s, **self.sweep.end_to_end(),
                **self.infer.end_to_end(), **self.serve.end_to_end()}

    def per_layer(self) -> dict:
        metrics = {**self.setup_ms, **self.sweep.per_layer(),
                   **self.infer.per_layer(),
                   **self.serve.per_layer(
                       self.infer.compiled_b1_ms("squeezenext")),
                   "core.codesign.loop_ms": self.codesign_ms()}
        for layer, ms in self.spans.self_ms_by_layer().items():
            metrics[f"trace.self_ms.{layer}"] = ms
        for kind, ratio in self.overhead.items():
            metrics[f"trace.overhead.{kind}_ratio"] = ratio
        return metrics

    @property
    def attempted(self) -> int:
        """Sweep points, images and requests sent, once set up."""
        if self.serve is None:
            return 0
        return (self.sweep.points_done + self.infer.images_done
                + self.serve.sent)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
