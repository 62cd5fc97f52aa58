"""The paper's primary contribution: DNN / accelerator co-design.

* :mod:`repro.core.selection` — per-layer WS/OS dataflow analysis;
* :mod:`repro.core.variants` — hardware-feedback-driven DNN transforms
  (SqueezeNext v1..v5);
* :mod:`repro.core.tuner` — accelerator parameter sweeps (RF size,
  array size, buffers, sparsity);
* :mod:`repro.core.sweep` — the shared parallel sweep engine (cached,
  deterministic-order config-point evaluation, thread or process mode,
  persistent disk cache, streamed results) every search runs on; a
  re-run with the same ``cache_dir`` resumes an interrupted sweep;
* :mod:`repro.core.pareto` — accuracy/latency/energy frontier (Fig. 4),
  batch or incrementally streamed (:class:`ParetoFrontier`);
* :mod:`repro.core.codesign` — the three-movement co-design loop.
"""

from repro.core.codesign import (
    CoDesignLoop,
    CoDesignResult,
    CoDesignStep,
    run_paper_codesign,
)
from repro.core.evolve import EvolveResult, EvolveStep, describe, evolve_squeezenext
from repro.core.pareto import (
    DesignPoint,
    ParetoFrontier,
    evaluate_design_points,
    families_on_front,
    pareto_front,
    streaming_sweep_frontier,
    sweep_dominates,
)
from repro.core.search import (
    CandidateSpec,
    EvaluatedCandidate,
    SearchResult,
    default_search_space,
    hardware_aware_search,
)
from repro.core.selection import (
    CategoryPreference,
    DataflowRatio,
    category_preferences,
    dataflow_ratios,
)
from repro.core.sweep import SweepEngine, SweepJob, SweepPoint, default_objective
from repro.core.tuner import (
    array_size_sweep,
    best_point,
    buffer_size_sweep,
    design_space_jobs,
    design_space_sweep,
    rf_size_sweep,
    sparsity_sweep,
    tune_for_network,
)
from repro.core.variants import (
    StageProfile,
    VariantResult,
    best_variant,
    evaluate_variants,
    profile_stages,
    propose_stage_shift,
    squeezenext_stage_of,
)

__all__ = [
    "CandidateSpec",
    "CategoryPreference",
    "CoDesignLoop",
    "CoDesignResult",
    "CoDesignStep",
    "DataflowRatio",
    "DesignPoint",
    "EvolveResult",
    "EvolveStep",
    "EvaluatedCandidate",
    "ParetoFrontier",
    "SearchResult",
    "StageProfile",
    "SweepEngine",
    "SweepJob",
    "SweepPoint",
    "VariantResult",
    "array_size_sweep",
    "best_point",
    "best_variant",
    "buffer_size_sweep",
    "category_preferences",
    "dataflow_ratios",
    "default_objective",
    "default_search_space",
    "describe",
    "design_space_jobs",
    "design_space_sweep",
    "evaluate_design_points",
    "evaluate_variants",
    "evolve_squeezenext",
    "families_on_front",
    "hardware_aware_search",
    "pareto_front",
    "profile_stages",
    "propose_stage_shift",
    "rf_size_sweep",
    "run_paper_codesign",
    "sparsity_sweep",
    "squeezenext_stage_of",
    "streaming_sweep_frontier",
    "sweep_dominates",
    "tune_for_network",
]
