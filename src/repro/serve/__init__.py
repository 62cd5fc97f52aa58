"""Inference serving runtime: dynamic batching, worker pool, admission
control.

The deployment layer the paper's §2 story points at: individual
embedded-vision queries arrive one image at a time, and this package
turns them into batched runs of an
:class:`~repro.nn.infer.InferencePlan`'s compiled programs behind a
bounded queue::

    from repro import serve
    from repro.nn import GraphNetwork
    from repro.models import squeezenext

    net = GraphNetwork(squeezenext(), batch_norm=True).eval()
    config = serve.ServerConfig(workers=4, max_batch_size=16,
                                max_wait_ms=2.0, queue_depth=128)
    with serve.Server.for_network(net, config) as server:
        future = server.submit(image)           # (C, H, W)
        logits = future.result()
        report = serve.LoadGenerator(server, images).run_open(
            rps=200, duration_s=5)
        print(server.stats().latency_ms["p99"], report.achieved_rps)

Guarantees: a full queue rejects with :class:`QueueFull` (memory is
bounded), queued requests past their deadline fail with
:class:`DeadlineExceeded` instead of occupying a batch slot,
``shutdown()`` drains and joins without dropping any accepted request,
and every response is bit-identical to running the compiled plan on
that single image directly.  ``repro-serve`` (:mod:`repro.serve.cli`) packages the
whole loop as a console script.

Two worker-pool backends sit behind ``ServerConfig.worker_mode``:
``"thread"`` (default) and ``"process"``, which forks GIL-free worker
processes from the one compiled runtime and moves batches over
:mod:`multiprocessing.shared_memory` rings (:mod:`repro.serve.procpool`).  A worker
process dying mid-batch fails exactly its own requests with
:class:`WorkerCrashed`; the rest of the pool keeps serving.
"""

from repro.serve.fleet import (
    FleetConfig,
    FleetModelSpec,
    FleetStats,
    FleetWorkload,
    ModelFleet,
    PacingSpec,
    WorkloadEntry,
)
from repro.serve.loadgen import (
    LoadGenerator,
    LoadReport,
    MixReport,
    TenantProfile,
)
from repro.serve.request import (
    DeadlineExceeded,
    PendingResponse,
    QueueFull,
    QuotaExceeded,
    ServeError,
    ServerClosed,
    WorkerCrashed,
)
from repro.serve.router import (
    RoutedVariant,
    RouterConfig,
    VariantRouter,
    build_candidate_set,
)
from repro.serve.server import Server, ServerConfig, ServerStats
from repro.serve.simtime import accelerator_service_time
from repro.serve.tenancy import SLOClass, TokenBucket, WeightedFairQueue

__all__ = [
    "DeadlineExceeded",
    "FleetConfig",
    "FleetModelSpec",
    "FleetStats",
    "FleetWorkload",
    "LoadGenerator",
    "LoadReport",
    "MixReport",
    "ModelFleet",
    "PacingSpec",
    "PendingResponse",
    "QueueFull",
    "QuotaExceeded",
    "RoutedVariant",
    "RouterConfig",
    "SLOClass",
    "ServeError",
    "Server",
    "ServerClosed",
    "ServerConfig",
    "ServerStats",
    "TenantProfile",
    "TokenBucket",
    "VariantRouter",
    "WeightedFairQueue",
    "WorkerCrashed",
    "WorkloadEntry",
    "accelerator_service_time",
    "build_candidate_set",
]
