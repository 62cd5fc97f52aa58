"""Iterative greedy co-design beyond the five published variants.

The paper's Figure 3 shows five hand-picked points of the SqueezeNext
design space.  Its own machinery — profile stage utilization, move
blocks from the lowest- to the highest-utilization stage, shrink the
first filter — is a *greedy step*, so it can simply be iterated: keep
applying the best profitable move until none improves simulated latency
(at fixed total depth, so capacity and accuracy stay comparable).

This "longer-version" extension answers the natural question the paper
leaves open: how much further would its own method have gone?  On our
estimator the greedy rediscovers the paper's exact move types (drain
the early stages, then shrink conv1) and keeps going past v5 — to
~1.4x over the baseline at (1, 1, 18, 1).  The paper stops earlier
deliberately: "a naive reduction may lead to a degradation in
accuracy", and latency-only greed has no accuracy term.  Constrain the
moves (e.g. ``min_stage_blocks``) to reproduce that restraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.accel.config import AcceleratorConfig, squeezelerator
from repro.core.sweep import SweepEngine, SweepJob
from repro.models.squeezenext import squeezenext


@dataclass(frozen=True)
class EvolveStep:
    """One accepted (or rejected-terminal) step of the greedy search."""

    iteration: int
    stages: Tuple[int, int, int, int]
    conv1_kernel: int
    cycles: float
    move: str


@dataclass
class EvolveResult:
    """Trajectory of the greedy co-design search."""

    steps: List[EvolveStep] = field(default_factory=list)

    @property
    def initial(self) -> EvolveStep:
        return self.steps[0]

    @property
    def final(self) -> EvolveStep:
        return self.steps[-1]

    @property
    def speedup(self) -> float:
        return self.initial.cycles / self.final.cycles


def _simulate_batch(engine: SweepEngine, config: AcceleratorConfig,
                    candidates) -> Iterator[float]:
    """Cycle counts for a batch of (stages, conv1_kernel, move) points.

    One engine call per greedy iteration: the candidates differ by a
    single block move or filter shrink, so nearly all of their layers
    are already in the shared cache.  Streamed via
    :meth:`SweepEngine.run_iter` in input order; callers consume the
    iterator fully (the greedy loop scans every candidate anyway).
    """
    jobs = [
        SweepJob(move, config,
                 squeezenext(stages=tuple(stages), conv1_kernel=conv1))
        for stages, conv1, move in candidates
    ]
    for point in engine.run_iter(jobs):
        yield point.report.total_cycles


def _candidate_moves(stages: Tuple[int, ...],
                     conv1_kernel: int,
                     min_stage_blocks: int,
                     min_conv1_kernel: int):
    """All single-step moves: shrink conv1, or shift one block between
    a donor stage (respecting the floor) and any other stage."""
    if conv1_kernel > min_conv1_kernel:
        yield (stages, conv1_kernel - 2,
               f"conv1 {conv1_kernel}x{conv1_kernel} -> "
               f"{conv1_kernel - 2}x{conv1_kernel - 2}")
    for donor in range(len(stages)):
        if stages[donor] <= min_stage_blocks:
            continue
        for receiver in range(len(stages)):
            if receiver == donor:
                continue
            moved = list(stages)
            moved[donor] -= 1
            moved[receiver] += 1
            yield (tuple(moved), conv1_kernel,
                   f"move block stage{donor + 1} -> stage{receiver + 1}")


def evolve_squeezenext(
    start_stages: Tuple[int, int, int, int] = (6, 6, 8, 1),
    start_conv1: int = 7,
    config: Optional[AcceleratorConfig] = None,
    max_iterations: int = 20,
    min_gain: float = 0.002,
    min_stage_blocks: int = 1,
    min_conv1_kernel: int = 3,
    engine: Optional[SweepEngine] = None,
) -> EvolveResult:
    """Greedy latency descent over (stage distribution, conv1 kernel).

    Stops when no single move improves simulated latency by at least
    ``min_gain`` (relative), or after ``max_iterations`` accepted moves.
    ``min_stage_blocks`` / ``min_conv1_kernel`` encode the paper's
    accuracy-protecting restraint (e.g. 2 blocks per stage, 5x5 floor
    reproduce roughly the published v5 endpoint).
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if min_stage_blocks < 1:
        raise ValueError("min_stage_blocks must be >= 1")
    config = config or squeezelerator(32)
    engine = engine or SweepEngine()
    stages = tuple(start_stages)
    conv1 = start_conv1
    (cycles,) = _simulate_batch(engine, config, [(stages, conv1, "start")])
    result = EvolveResult()
    result.steps.append(EvolveStep(0, stages, conv1, cycles, "start"))

    for iteration in range(1, max_iterations + 1):
        candidates = list(_candidate_moves(stages, conv1, min_stage_blocks,
                                           min_conv1_kernel))
        best = None
        # Generator first in the zip: once the last candidate is
        # consumed, run_iter's cleanup (disk-tier flush) runs.
        for cand_cycles, candidate in zip(
                _simulate_batch(engine, config, candidates), candidates):
            if best is None or cand_cycles < best[0]:
                best = (cand_cycles,) + candidate
        if best is None or best[0] >= cycles * (1 - min_gain):
            break
        cycles, stages, conv1 = best[0], best[1], best[2]
        result.steps.append(EvolveStep(iteration, stages, conv1,
                                       cycles, best[3]))
    return result


def describe(result: EvolveResult) -> str:
    """Human-readable trajectory."""
    lines = ["greedy co-design trajectory:"]
    for step in result.steps:
        lines.append(
            f"  [{step.iteration:>2}] conv1={step.conv1_kernel}x"
            f"{step.conv1_kernel} blocks={step.stages} "
            f"{step.cycles / 1e3:8.1f}k  ({step.move})")
    lines.append(f"total gain: {result.speedup:.2f}x over "
                 f"{len(result.steps) - 1} accepted moves")
    return "\n".join(lines)
