"""The ``repro-serve`` console entry point.

Spin up the serving runtime around one zoo model, drive it with the
built-in load generator, and print (optionally JSON-dump) the load
report and server statistics::

    repro-serve --model sqnxt_23_v5 --rps 200 --duration 5
    repro-serve --model squeezenet_v1_1 --clients 8 --requests 64
    repro-serve --model sqnxt_23 --rps 100 --sim --time-scale 0.1
    repro-serve --model sqnxt_23_v5 --worker-mode process --workers 4
    repro-serve --model mobilenet --rps 50 --duration 5
    repro-serve --model squeezenet_v1_1 --quantized-bits 16 --rps 100
    repro-serve --fleet fleet.json --rps 40 --duration 10 --json out.json

``--rps`` selects the open-loop generator (Poisson arrivals by
default — seeded, bursty, the honest tail-latency experiment; pass
``--arrivals uniform`` for fixed gaps); without it a closed loop with
``--clients`` synchronous callers runs.  ``--sim`` paces every batch
to the simulated Squeezelerator's cycle count (see
:mod:`repro.serve.simtime`).  ``--worker-mode process`` runs the
GIL-free multiprocessing pool: workers forked from the one built
model, which they share copy-on-write (needs the ``fork`` start
method).

Models are addressed by slug (``sqnxt_23_v5``, ``mobilenet``,
``squeezenet_v1_0``...) or by their canonical zoo row name.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.graph.network_spec import NetworkSpec
from repro.models import MODEL_FACTORIES
from repro.models.squeezedet import squeezedet
from repro.models.squeezeseg import squeezeseg
from repro.models.squeezenext import squeezenext
from repro.nn.network import GraphNetwork
from repro.serve.loadgen import LoadGenerator, LoadReport
from repro.serve.server import Server, ServerConfig, ServerStats
from repro.serve.simtime import accelerator_service_time

__all__ = ["MODEL_SLUGS", "build_spec", "format_fleet_report",
           "format_report", "main", "run_fleet"]

#: Slug -> factory.  Covers the zoo plus the SqueezeNext co-design
#: variants v2..v5 (Figure 3), which only exist as factory arguments.
MODEL_SLUGS: Dict[str, Callable[[], NetworkSpec]] = {
    "alexnet": MODEL_FACTORIES["AlexNet"],
    "mobilenet": MODEL_FACTORIES["1.0 MobileNet-224"],
    "tiny_darknet": MODEL_FACTORIES["Tiny Darknet"],
    "squeezenet_v1_0": MODEL_FACTORIES["SqueezeNet v1.0"],
    "squeezenet_v1_1": MODEL_FACTORIES["SqueezeNet v1.1"],
    "squeezenext": MODEL_FACTORIES["SqueezeNext"],
    "sqnxt_23": MODEL_FACTORIES["SqueezeNext"],
    "sqnxt_23_v1": MODEL_FACTORIES["SqueezeNext"],
    "sqnxt_23_v2": lambda: squeezenext(variant=2),
    "sqnxt_23_v3": lambda: squeezenext(variant=3),
    "sqnxt_23_v4": lambda: squeezenext(variant=4),
    "sqnxt_23_v5": lambda: squeezenext(variant=5),
    # Task networks (§4): the KITTI-sized detector and the LiDAR
    # segmenter are servable residents too, not just sim subjects.
    "squeezedet": squeezedet,
    "squeezeseg": squeezeseg,
}


def build_spec(name: str) -> NetworkSpec:
    """Resolve a model slug or canonical zoo name to its spec."""
    if name in MODEL_FACTORIES:
        return MODEL_FACTORIES[name]()
    slug = name.lower().replace("-", "_").replace(".", "_")
    if slug in MODEL_SLUGS:
        return MODEL_SLUGS[slug]()
    known = ", ".join(sorted(MODEL_SLUGS))
    raise KeyError(f"unknown model {name!r}; known slugs: {known}")


def format_report(load: LoadReport, stats: ServerStats,
                  model: str) -> str:
    """The human-readable run summary printed by the CLI."""
    lat = load.latency_ms
    lines = [
        f"== repro-serve: {model} ==",
        (f"mode {load.mode}"
         + (f" @ {load.offered_rps:g} rps offered"
            if load.offered_rps else f", {load.clients} clients")
         + f", {load.duration_s:.2f}s"),
        (f"sent {load.sent}  completed {load.completed}  "
         f"rejected {load.rejected}  expired {load.expired}  "
         f"failed {load.failed}"),
        f"throughput {load.achieved_rps:.1f} req/s",
        (f"latency ms  p50 {lat['p50']:.2f}  p95 {lat['p95']:.2f}  "
         f"p99 {lat['p99']:.2f}  max {lat['max']:.2f}"),
        (f"batches {stats.batches}  mean batch "
         f"{stats.mean_batch_size:.2f}  sizes "
         + " ".join(f"{size}x{count}" for size, count in
                    sorted(stats.batch_size_hist.items()))),
        f"static blocks held {stats.arena['held_bytes'] / 2**20:.1f} MiB",
    ]
    return "\n".join(lines)


def format_fleet_report(mix, stats) -> str:
    """The human-readable fleet run summary printed by ``--fleet``."""
    lines = ["== repro-serve fleet =="]
    for name, report in mix.tenants.items():
        tenant = stats.tenants[name]
        lat = report.latency_ms
        lines.append(
            f"tenant {name}: model {tenant['current_model']}  "
            f"sent {report.sent}  completed {report.completed}  "
            f"quota_rejected {report.quota_rejected}  "
            f"expired {report.expired}")
        lines.append(
            f"  deadline {tenant['deadline_ms']:g} ms  latency p50 "
            f"{lat['p50']:.2f}  p95 {lat['p95']:.2f}  p99 "
            f"{lat['p99']:.2f}")
    for group, routing in stats.routing.items():
        frontier = " -> ".join(
            f"{v['model']} ({v['top1_accuracy']:.1f}%, "
            f"{v['predicted_ms']:.1f}ms)"
            for v in routing["frontier"])
        lines.append(f"route group {group}: frontier {frontier}")
        for cls, state in routing["classes"].items():
            decisions = " ".join(f"{m}x{c}" for m, c in
                                 sorted(state["decisions"].items()))
            lines.append(
                f"  class {cls}: on {state['current']}  decisions "
                f"{decisions or '-'}  switches {len(state['switches'])}")
    return "\n".join(lines)


def run_fleet(args) -> int:
    """The ``--fleet fleet.json`` code path of :func:`main`."""
    from repro.serve.fleet import FleetConfig, ModelFleet
    from repro.serve.loadgen import TenantProfile

    config = FleetConfig.from_json(args.fleet)
    rps = args.rps if args.rps is not None else 20.0
    profiles = [TenantProfile(tenant=t.name, share=t.share)
                for t in config.tenants]
    print(f"fleet: {len(config.models)} resident models, "
          f"{len(config.tenants)} tenants, {rps:g} rps offered",
          file=sys.stderr)
    with ModelFleet(config) as fleet:
        generator = LoadGenerator(fleet, fleet.sample_inputs(
            seed=config.seed))
        mix = generator.run_mix(profiles, rps=rps,
                                duration_s=args.duration,
                                seed=config.seed)
        stats = fleet.stats()
        workload = fleet.export_workload()

    print(format_fleet_report(mix, stats))
    if args.json:
        document = {"fleet": config.as_dict(),
                    "mix": mix.as_dict(),
                    "stats": stats.as_dict(),
                    "workload": workload.as_dict()}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"report written to {args.json}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a zoo model with dynamic batching and "
                    "measure throughput/tail latency.")
    parser.add_argument("--model", default="sqnxt_23_v5",
                        help="model slug or zoo name (default: "
                             "sqnxt_23_v5)")
    parser.add_argument("--fleet", metavar="FLEET.json", default=None,
                        help="serve a multi-tenant model fleet from this "
                             "config instead of one --model (drives a "
                             "traffic mix; honors --rps, --duration, "
                             "--json)")
    parser.add_argument("--rps", type=float, default=None,
                        help="open-loop offered load in requests/s "
                             "(default: closed loop)")
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop concurrent callers "
                             "(default: 4)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="load window in seconds (default: 5)")
    parser.add_argument("--requests", type=int, default=None,
                        help="closed loop: stop after this many "
                             "requests (combines with --duration)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker pool size (default: 2)")
    parser.add_argument("--worker-mode", choices=("thread", "process"),
                        default="thread",
                        help="pool backend: thread (default; "
                             "bit-identical, right for --sim pacing) "
                             "or process (GIL-free host scaling; "
                             "workers fork the one built model)")
    parser.add_argument("--quantized-bits", type=int, default=None,
                        metavar="BITS",
                        help="serve through the integer plan at this "
                             "width (16 = int16, 8 = int8); request "
                             "rings carry narrow payloads and workers "
                             "run integer GEMM (see repro.nn.quant)")
    parser.add_argument("--no-warmup", action="store_true",
                        help="skip the dummy warm-up batch each worker "
                             "runs at start")
    parser.add_argument("--arrivals", choices=("uniform", "poisson"),
                        default="poisson",
                        help="open-loop schedule: seeded Poisson "
                             "bursts (default) or fixed 1/rps gaps")
    parser.add_argument("--max-batch-size", type=int, default=8,
                        help="dynamic batch ceiling (default: 8)")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="batch coalescing window (default: 2ms)")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="admission-control queue bound "
                             "(default: 64)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request queueing deadline "
                             "(default: none)")
    parser.add_argument("--sim", action="store_true",
                        help="pace batches to the simulated "
                             "Squeezelerator instead of host speed")
    parser.add_argument("--array-size", type=int, default=32,
                        help="--sim machine PE array dimension")
    parser.add_argument("--rf-entries", type=int, default=8,
                        help="--sim machine RF entries per PE")
    parser.add_argument("--time-scale", type=float, default=1.0,
                        help="--sim time compression (0.1 = 10x "
                             "fast-forward)")
    parser.add_argument("--seed", type=int, default=0,
                        help="rng seed for weights and inputs")
    parser.add_argument("--json", metavar="OUT.json", default=None,
                        help="also dump the reports as JSON")
    args = parser.parse_args(argv)

    if args.fleet is not None:
        try:
            return run_fleet(args)
        except (OSError, ValueError, KeyError) as error:
            print(f"fleet config error: {error}", file=sys.stderr)
            return 2

    try:
        model_spec = build_spec(args.model)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2

    service_time = None
    if args.sim:
        service_time = accelerator_service_time(
            model_spec, array_size=args.array_size,
            rf_entries=args.rf_entries, time_scale=args.time_scale)
        print(f"sim pacing: {service_time.per_image_s * 1e3:.3f} ms/image "
              f"on {service_time.report.machine}", file=sys.stderr)

    # Validate the settings before paying for the network build.
    try:
        config = ServerConfig(
            workers=args.workers,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            queue_depth=args.queue_depth,
            default_deadline_ms=args.deadline_ms,
            service_time=service_time,
            worker_mode=args.worker_mode,
            warmup=not args.no_warmup,
            quantized_bits=args.quantized_bits,
        )
    except ValueError as error:
        print(f"config error: {error}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    net = GraphNetwork(model_spec, rng=rng, batch_norm=True).eval()
    print(f"built {model_spec.name} "
          f"({net.num_parameters():,} parameters)", file=sys.stderr)

    shape = model_spec.input_shape
    inputs = rng.normal(
        size=(8, shape.channels, shape.height, shape.width))

    with Server.for_network(net, config) as server:
        generator = LoadGenerator(server, inputs)
        if args.rps is not None:
            load = generator.run_open(args.rps, args.duration,
                                      arrivals=args.arrivals,
                                      seed=args.seed)
        else:
            load = generator.run_closed(
                clients=args.clients, duration_s=args.duration,
                requests=args.requests)
        stats = server.stats()

    print(format_report(load, stats, model_spec.name))
    if args.json:
        document = {"model": model_spec.name,
                    "load": load.as_dict(),
                    "server": stats.as_dict()}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"report written to {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
