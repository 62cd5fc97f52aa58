"""Benchmark of the co-design reproduction: sweep, inference and serving.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dse_sweep --seed 1 --seconds 30 \\
        --trace 0

Every workload runs the sweep, inference and serving phases
(:mod:`bench`) and gives its own phase most of the run (``WORKLOADS``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
traced run: benchmark-side spans around each call into a layer, written
as a Chrome trace under ``.perfbench/``, and the per-layer metrics,
including self time per layer and the tracing overhead.  The last line
of standard output is the result object; the line before it stamps the
environment and the host-drift probe.  A failed correctness check
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before numpy loads: one BLAS thread per process,
# and no inherited sweep or serving overrides.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith(("SWEEP_", "SERVE_"))]:
    del os.environ[_var]

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Share of the run's time each phase gets, per workload.
WORKLOADS = {
    "dse_sweep": {"sweep": 0.4, "infer": 0.2, "serve": 0.4},
    "serve_open": {"sweep": 0.2, "infer": 0.2, "serve": 0.6},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every phase (smoke tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still shuts its server down and removes its
    # cache directory (the ``finally`` below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import Bench
    from harness import CheckFailed, drift_probe, environment_stamp

    declared = declared_metrics()[args.trace]
    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "env": environment_stamp(ROOT), "drift_before": drift_probe()}
    if stamp["env"]["blas_threads"] not in (None, 1):
        print(f"perfbench: BLAS runs {stamp['env']['blas_threads']} threads",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(args, WORKLOADS[args.workload], workdir)
    correct, error = True, None
    try:
        bench.set_up()
        bench.warm_up()
        bench.measure()
        bench.sweep.final_check()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except CheckFailed as exc:
        correct, error, metrics = False, str(exc), {}
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
    stamp["drift_after"] = drift_probe()
    stamp["units"] = bench.units
    stamp["invalid_serve_phases"] = (bench.serve.invalid_phases()
                                     if correct else [])
    if error:
        stamp["check_failed"] = error
        print(f"perfbench: correctness check failed: {error}",
              file=sys.stderr)
    if correct:
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        if missing or extra:
            print(f"perfbench: metrics differ from BENCHMARK.json: missing "
                  f"{missing}, undeclared {extra}", file=sys.stderr)
            return 2
    if args.trace and correct:
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(bench.spans.chrome_trace()))
        stamp["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(stamp))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.serve.failed if correct else 1,
        "metrics": {name: {"value": float(value), "unit": declared[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
