"""The full coarse-grain co-design loop (paper §4).

The paper's process has three movements, each implemented by one step
of :class:`CoDesignLoop`:

1. **Tailor the accelerator to the DNN** — fix the model (SqueezeNet),
   search machine parameters (array size), enable per-layer dataflow
   selection.
2. **Tailor the DNN to the accelerator** — fix the machine, profile
   stage utilization, apply the filter-shrink and stage-redistribution
   transforms (SqueezeNext v1 -> v5).
3. **Re-tune the accelerator** — with the new DNN fixed, re-sweep the
   cheap hardware knobs (register file size).

Each step records what changed and why, so the loop's output reads like
the paper's design narrative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.accel.hybrid import Squeezelerator
from repro.core.sweep import SweepEngine
from repro.core.tuner import array_size_sweep, best_point, rf_size_sweep
from repro.core.variants import VariantResult, best_variant, evaluate_variants
from repro.graph.network_spec import NetworkSpec


@dataclass(frozen=True)
class CoDesignStep:
    """One movement of the loop: what was held fixed, what was chosen."""

    name: str
    description: str
    chosen: str
    cycles: float
    energy: float

    @property
    def summary(self) -> str:
        return (f"{self.name}: {self.chosen} "
                f"({self.cycles:.0f} cycles, {self.energy:.3g} energy)")


@dataclass
class CoDesignResult:
    """Final state of the loop plus its step-by-step history."""

    steps: List[CoDesignStep] = field(default_factory=list)
    final_accelerator: Optional[Squeezelerator] = None
    final_variant: Optional[VariantResult] = None

    @property
    def narrative(self) -> str:
        return "\n".join(step.summary for step in self.steps)


class CoDesignLoop:
    """Coarse-grain DNN/accelerator co-design driver."""

    def __init__(self, seed_network: NetworkSpec,
                 array_sizes=(16, 32), rf_entries=(8, 16),
                 engine: Optional[SweepEngine] = None) -> None:
        self.seed_network = seed_network
        self.array_sizes = tuple(array_sizes)
        self.rf_entries = tuple(rf_entries)
        # One engine for all three movements, so the re-tune sweep reuses
        # every layer report the initial sweep already produced.  An
        # engine with a cache_dir makes the loop resumable: a re-run
        # serves every finished sweep point from the store.
        self.engine = engine or SweepEngine()

    def run(self) -> CoDesignResult:
        """Execute all three movements and return the history."""
        result = CoDesignResult()

        # Movement 1: tailor the accelerator to the seed DNN.
        hw_points = array_size_sweep(self.seed_network,
                                     sizes=self.array_sizes,
                                     engine=self.engine)
        hw_best = best_point(hw_points)
        result.steps.append(CoDesignStep(
            name="accelerator-for-dnn",
            description=(f"array-size sweep on {self.seed_network.name} "
                         "with per-layer dataflow selection"),
            chosen=hw_best.label,
            cycles=hw_best.cycles,
            energy=hw_best.energy,
        ))
        accelerator = Squeezelerator(config=hw_best.config)

        # Movement 2: tailor the DNN to the accelerator.
        variants = evaluate_variants(accelerator)
        chosen_variant = best_variant(variants)
        result.steps.append(CoDesignStep(
            name="dnn-for-accelerator",
            description=("first-layer filter shrink + stage "
                         "redistribution (SqueezeNext v1..v5)"),
            chosen=chosen_variant.network.name,
            cycles=chosen_variant.cycles,
            energy=chosen_variant.energy,
        ))

        # Movement 3: re-tune the accelerator for the chosen DNN.
        rf_points = rf_size_sweep(chosen_variant.network,
                                  rf_entries=self.rf_entries,
                                  array_size=hw_best.config.array_rows,
                                  engine=self.engine)
        rf_best = best_point(rf_points)
        result.steps.append(CoDesignStep(
            name="retune-accelerator",
            description="register-file size sweep on the chosen variant",
            chosen=rf_best.label,
            cycles=rf_best.cycles,
            energy=rf_best.energy,
        ))

        final_accel = Squeezelerator(config=rf_best.config)
        result.final_accelerator = final_accel
        result.final_variant = VariantResult(
            variant=chosen_variant.variant,
            network=chosen_variant.network,
            report=final_accel.run(chosen_variant.network),
            top1_accuracy=chosen_variant.top1_accuracy,
        )
        return result


def run_paper_codesign() -> CoDesignResult:
    """The paper's exact loop: seed with SqueezeNet v1.0."""
    from repro.models import squeezenet_v1_0

    return CoDesignLoop(squeezenet_v1_0()).run()
