"""Run every paper artifact and print measured-vs-paper reports.

Installed as the ``repro-experiments`` console script:

    repro-experiments                      # everything
    repro-experiments table2 f1            # a subset, by id
    repro-experiments t2 --array-size 16   # a different machine
    repro-experiments headline --trace trace.json --profile

Artifact ids: t1, t2, f1, f2, f3, f4, claims, headline, taxonomy,
footprint, perlayer, energy, quant (long names like "table1" work too).
The ``quant`` artifact is the quantized-inference study — accuracy vs
speed vs memory at int16/int8, cross-checked against the fixed-point
oracle; ``--quant-bits`` narrows it to one width.

Machine flags and artifacts
---------------------------

``--array-size`` / ``--rf-entries`` override the simulated machine, but
not every artifact has a machine to override (Table 1 is pure model
statistics) and the headline artifact *is* an RF 8-vs-16 comparison, so
an external RF override would be meaningless.  The applicability matrix
lives in :data:`ARTIFACT_FLAGS`; passing a flag an artifact cannot
honour emits an explicit ``UserWarning`` ("--rf-entries ignored by
artifact 'headline'") instead of silently dropping it.

``--trace OUT.json`` records the run through :mod:`repro.obs` and
writes a Chrome-trace JSON file (open in ``chrome://tracing`` or
Perfetto); ``--profile`` prints the aggregated span/counter report to
stderr (per-span p50/p99 come from the same
:class:`~repro.obs.LatencyHistogram` the serving runtime uses).  Both
can be combined with any artifact subset.

This script regenerates the paper's *offline* artifacts; its sibling
``repro-serve`` (:mod:`repro.serve.cli`) measures the *online* story —
throughput and tail latency of a model behind the dynamic-batching
serving runtime, optionally paced to the simulated Squeezelerator.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Callable, Dict, FrozenSet, List, Optional

from repro import obs
from repro.accel.config import squeezelerator
from repro.experiments import (
    energy_breakdown,
    figure1,
    figure2,
    figure3,
    figure4,
    headline,
    memory_footprint,
    per_layer,
    quantization,
    table1,
    table2,
    taxonomy,
    text_claims,
)


def _run_table1(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    return table1.format_table1(table1.run_table1())


def _run_table2(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    # Table 2's own default machine is 16x16 (see its module docstring).
    return table2.format_table2(
        table2.run_table2(array_size or 16, rf_entries or 8))


def _run_figure1(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    return figure1.format_figure1(figure1.run_figure1(array_size or 32,
                                                      rf_entries or 8))


def _run_figure2(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    return figure2.render_block_diagram(
        squeezelerator(array_size or 32, rf_entries or 8))


def _run_figure3(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    return figure3.format_figure3(figure3.run_figure3(array_size or 32,
                                                      rf_entries or 8))


def _run_figure4(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    return figure4.format_figure4(figure4.run_figure4(array_size or 32,
                                                      rf_entries or 8))


def _run_claims(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    return text_claims.format_text_claims(
        text_claims.run_text_claims(array_size or 32, rf_entries or 8))


def _run_headline(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    # The headline artifact is itself the RF 8 -> 16 tune-up, so an
    # external --rf-entries override has nothing to apply to.
    return headline.format_headline(headline.run_headline(array_size or 32))


def _run_taxonomy(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    return taxonomy.format_taxonomy(
        taxonomy.run_taxonomy(array_size or 32, rf_entries or 8))


def _run_footprint(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    return memory_footprint.format_memory_footprint(
        memory_footprint.run_memory_footprint(array_size or 32,
                                              rf_entries or 8))


def _run_per_layer(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    return per_layer.format_per_layer(
        per_layer.run_per_layer(array_size or 32, rf_entries or 8))


def _run_energy(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    return energy_breakdown.format_energy_breakdown(
        energy_breakdown.run_energy_breakdown(array_size or 32,
                                              rf_entries or 8))


def _run_quant(array_size: int, rf_entries: int, quant_bits: Optional[int]) -> str:
    # --quant-bits narrows the study to one width; default covers the
    # accelerator's native int16 plus the aggressive int8 point.
    widths = (quant_bits,) if quant_bits else (16, 8)
    return quantization.format_quantization(
        quantization.run_quantization(quant_bits=widths))


_ARTIFACTS: Dict[str, Callable[[int, int, Optional[int]], str]] = {
    "t1": _run_table1,
    "t2": _run_table2,
    "f1": _run_figure1,
    "f2": _run_figure2,
    "f3": _run_figure3,
    "f4": _run_figure4,
    "claims": _run_claims,
    "headline": _run_headline,
    "taxonomy": _run_taxonomy,
    "footprint": _run_footprint,
    "perlayer": _run_per_layer,
    "energy": _run_energy,
    "quant": _run_quant,
}

_BOTH = frozenset({"array_size", "rf_entries"})

#: Which machine flags each artifact honours (the applicability matrix;
#: documented in docs/api.md).  Anything outside the set draws an
#: explicit "ignored" warning when the user passes it.
ARTIFACT_FLAGS: Dict[str, FrozenSet[str]] = {
    "t1": frozenset(),               # pure model statistics, no machine
    "t2": _BOTH,
    "f1": _BOTH,
    "f2": _BOTH,
    "f3": _BOTH,
    "f4": _BOTH,
    "claims": _BOTH,
    "headline": frozenset({"array_size"}),  # RF sweep IS the artifact
    "taxonomy": _BOTH,
    "footprint": _BOTH,
    "perlayer": _BOTH,
    "energy": _BOTH,
    "quant": frozenset({"quant_bits"}),  # no simulated machine at all
}

_ALIASES = {
    "table1": "t1", "table2": "t2",
    "figure1": "f1", "figure2": "f2", "figure3": "f3", "figure4": "f4",
    "text_claims": "claims",
    "memory_footprint": "footprint",
    "per_layer": "perlayer",
    "energy_breakdown": "energy",
    "quantization": "quant",
}


def resolve(name: str) -> str:
    """Normalize an artifact name to its canonical id."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _ARTIFACTS:
        known = ", ".join(list(_ARTIFACTS) + list(_ALIASES))
        raise KeyError(f"unknown artifact {name!r}; known: {known}")
    return key


def _warn_ignored_flags(keys: List[str], array_size: Optional[int],
                        rf_entries: Optional[int],
                        quant_bits: Optional[int] = None) -> None:
    """One explicit warning per (explicitly passed flag, deaf artifact)."""
    passed = {flag for flag, value in (("array_size", array_size),
                                       ("rf_entries", rf_entries),
                                       ("quant_bits", quant_bits))
              if value is not None}
    for key in keys:
        for flag in sorted(passed - ARTIFACT_FLAGS[key]):
            warnings.warn(
                f"--{flag.replace('_', '-')} ignored by artifact {key!r}",
                UserWarning, stacklevel=3)


def run(names: Optional[List[str]] = None,
        array_size: Optional[int] = None,
        rf_entries: Optional[int] = None,
        jobs: int = 1,
        quant_bits: Optional[int] = None) -> str:
    """Render the selected artifacts (all of them when empty).

    ``array_size=None`` / ``rf_entries=None`` let each artifact use its
    own documented default machine (32x32 / RF-8 everywhere except
    Table 2's 16x16).  Explicitly passed flags that an artifact cannot
    honour draw a ``UserWarning`` (see :data:`ARTIFACT_FLAGS`).
    ``jobs > 1`` renders the artifacts concurrently through the shared
    sweep engine; section order stays deterministic either way.

    Sweep behaviour inside artifacts is steered by the environment
    (``SWEEP_MODE``, ``SWEEP_MAX_WORKERS``, ``SWEEP_CACHE_DIR`` — see
    :mod:`repro.core.sweep`); the CLI's ``--cache-dir`` /
    ``--sweep-workers`` flags set those variables for the duration of
    :func:`main`.  Re-running with the same ``--cache-dir`` resumes an
    interrupted run: finished sweep points come from the store.
    """
    keys = [resolve(n) for n in names] if names else list(_ARTIFACTS)
    _warn_ignored_flags(keys, array_size, rf_entries, quant_bits)

    def render(key: str) -> str:
        with obs.span("runner.artifact", artifact=key):
            return _ARTIFACTS[key](array_size, rf_entries, quant_bits)

    if jobs > 1 and len(keys) > 1:
        from repro.core.sweep import SweepEngine

        engine = SweepEngine(max_workers=jobs)
        sections = engine.map_ordered(render, keys)
    else:
        sections = [render(key) for key in keys]
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures.")
    parser.add_argument("artifacts", nargs="*",
                        help="artifact ids (default: all): "
                             + ", ".join(_ARTIFACTS))
    parser.add_argument("--array-size", type=int, default=None,
                        help="PE array dimension (default: each "
                             "artifact's documented machine)")
    parser.add_argument("--rf-entries", type=int, default=None,
                        help="register-file entries per PE (default: "
                             "each artifact's documented machine; "
                             "paper: 8/16)")
    parser.add_argument("--quant-bits", type=int, default=None,
                        metavar="BITS",
                        help="quant artifact: study only this integer "
                             "width (default: both 16 and 8); other "
                             "artifacts warn and ignore it")
    parser.add_argument("--jobs", type=int, default=1,
                        help="render artifacts concurrently (default: 1)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persistent simulation cache directory "
                             "(sets SWEEP_CACHE_DIR; re-runs, including "
                             "of an interrupted run, skip every "
                             "already-simulated point)")
    parser.add_argument("--sweep-workers", type=int, default=None,
                        metavar="N",
                        help="sweep worker count (sets SWEEP_MAX_WORKERS)")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="record a Chrome-trace JSON of the run "
                             "(open in chrome://tracing or Perfetto)")
    parser.add_argument("--profile", action="store_true",
                        help="print the span/counter profile to stderr")
    args = parser.parse_args(argv)
    overrides = {}
    if args.cache_dir is not None:
        overrides["SWEEP_CACHE_DIR"] = args.cache_dir
    if args.sweep_workers is not None:
        if args.sweep_workers < 1:
            parser.error("--sweep-workers must be >= 1")
        overrides["SWEEP_MAX_WORKERS"] = str(args.sweep_workers)
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    tracer = obs.enable() if (args.trace or args.profile) else None
    try:
        print(run(args.artifacts, args.array_size, args.rf_entries,
                  jobs=args.jobs, quant_bits=args.quant_bits))
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        if tracer is not None:
            obs.disable()
            if args.trace:
                obs.export_chrome_trace(tracer, args.trace)
                print(f"trace written to {args.trace} "
                      f"({len(tracer.spans)} spans)", file=sys.stderr)
            if args.profile:
                print(obs.profile_report(tracer), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
