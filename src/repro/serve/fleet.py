"""Multi-tenant model fleet: several resident models, one admission plane.

:class:`ModelFleet` is the deployment story the paper's frontier was
always pointing at.  Each resident model gets its own
:class:`~repro.serve.Server` (compiled plan, worker pool — thread or
process mode, optionally paced to the simulated Squeezelerator);
in front of them sits one multi-tenant admission plane:

* per-tenant :class:`~repro.serve.SLOClass` contracts (deadline,
  weighted-fair share, token-bucket quota),
* a :class:`~repro.serve.WeightedFairQueue` the scheduler thread
  drains in weighted-fair order,
* and a :class:`~repro.serve.VariantRouter` per route group that picks
  which frontier variant serves each routed tenant's next request from
  live windowed tail percentiles — the offline Pareto frontier of
  :mod:`repro.core.pareto`, consulted online.

Request flow: ``submit(tenant, x)`` checks the tenant's quota
(:class:`~repro.serve.QuotaExceeded`), stamps the SLO deadline, and
enqueues into the tenant's fair-queue lane
(:class:`~repro.serve.QueueFull` when the lane is at depth).  The
scheduler thread pops weighted-fair, asks the router (or the pinned
slug) for a model, and submits to that model's server, chaining the
inner future to the caller's via ``on_done`` — no thread is parked per
in-flight request.  Every accepted request completes, loudly on
failure, exactly as the single-server runtime guarantees.

The fleet also closes the co-design loop in the other direction:
:meth:`ModelFleet.export_workload` summarizes the observed traffic mix
(per-model shares, the binding deadline) into the inputs
:func:`repro.core.search.hardware_aware_search` and
:class:`repro.core.codesign.CoDesignLoop` consume, so tomorrow's
accelerator can be tailored to today's measured traffic.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.graph.network_spec import NetworkSpec
from repro.nn.network import GraphNetwork
from repro.obs.hist import LatencyHistogram
from repro.serve.request import (
    DeadlineExceeded,
    PendingResponse,
    QueueFull,
    QuotaExceeded,
    ServeError,
    ServerClosed,
)
from repro.serve.router import RouterConfig, VariantRouter, build_candidate_set
from repro.serve.server import Server, ServerConfig, ServerStats
from repro.serve.simtime import accelerator_service_time
from repro.serve.tenancy import SLOClass, TokenBucket, WeightedFairQueue

__all__ = [
    "FleetConfig",
    "FleetModelSpec",
    "FleetStats",
    "FleetWorkload",
    "ModelFleet",
    "PacingSpec",
    "WorkloadEntry",
]

_US = 1e6


def _build_spec(slug: str) -> NetworkSpec:
    # Lazy import: the CLI imports fleet for --fleet mode, and fleet
    # needs the CLI's slug table — break the cycle at call time.
    from repro.serve.cli import build_spec
    return build_spec(slug)


@dataclass(frozen=True)
class PacingSpec:
    """How resident servers are paced.

    ``sim=True`` paces every server to the analytical simulator's
    per-image time on a ``squeezelerator(array_size, rf_entries)``
    machine (:func:`repro.serve.accelerator_service_time`) — the same
    machine the router scores candidates on, so predicted and imposed
    latencies agree.  ``time_scale`` compresses modelled time.
    """

    sim: bool = False
    array_size: int = 32
    rf_entries: int = 8
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.array_size < 1 or self.rf_entries < 1:
            raise ValueError("array_size and rf_entries must be >= 1")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")

    def as_dict(self) -> Dict[str, object]:
        return {"sim": self.sim, "array_size": self.array_size,
                "rf_entries": self.rf_entries,
                "time_scale": self.time_scale}


@dataclass(frozen=True)
class FleetModelSpec:
    """One resident model's server allocation.

    ``slug`` resolves through the ``repro-serve`` slug table (or any
    canonical zoo name).  The remaining fields mirror
    :class:`~repro.serve.ServerConfig` per model — a heavyweight
    detector can get process-mode workers while the classifiers share
    thread pools.  ``service_time`` (not serialized) overrides pacing
    for this model; tests use it to impose exact synthetic speeds.
    """

    slug: str
    workers: int = 1
    max_batch_size: int = 4
    max_wait_ms: float = 2.0
    queue_depth: int = 64
    worker_mode: str = "thread"
    quantized_bits: Optional[int] = None
    service_time: Optional[Callable[[int], float]] = None

    def __post_init__(self) -> None:
        if not self.slug:
            raise ValueError("model slug must be non-empty")

    def as_dict(self) -> Dict[str, object]:
        return {
            "slug": self.slug,
            "workers": self.workers,
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "queue_depth": self.queue_depth,
            "worker_mode": self.worker_mode,
            "quantized_bits": self.quantized_bits,
        }


def _from_keys(cls, payload: Mapping[str, object], context: str):
    try:
        return cls(**payload)
    except TypeError as error:
        raise ValueError(f"{context}: {error}") from None


@dataclass(frozen=True)
class FleetConfig:
    """The whole fleet, declaratively — what ``fleet.json`` deserializes to.

    Validation is eager and cross-referencing: every slug a tenant pins
    or routes to must be a resident model, names must be unique, and a
    route group needs at least two candidates (routing between one
    variant is a pinned tenant wearing a costume).
    """

    tenants: Tuple[SLOClass, ...]
    models: Tuple[FleetModelSpec, ...]
    pacing: PacingSpec = PacingSpec()
    router: RouterConfig = RouterConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        object.__setattr__(self, "models", tuple(self.models))
        if not self.tenants:
            raise ValueError("fleet needs at least one tenant")
        if not self.models:
            raise ValueError("fleet needs at least one resident model")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        slugs = [m.slug for m in self.models]
        if len(set(slugs)) != len(slugs):
            raise ValueError(f"duplicate model slugs in {slugs}")
        resident = set(slugs)
        for tenant in self.tenants:
            wanted = [tenant.model] if tenant.model else list(tenant.route)
            missing = [slug for slug in wanted if slug not in resident]
            if missing:
                raise ValueError(
                    f"tenant {tenant.name!r} references non-resident "
                    f"model(s) {missing}; resident: {sorted(resident)}")
            if tenant.route and len(tenant.route) < 2:
                raise ValueError(
                    f"tenant {tenant.name!r}: a route group needs >= 2 "
                    f"candidates (pin model= for a single variant)")

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FleetConfig":
        known = {"tenants", "models", "pacing", "router", "seed"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown fleet config key(s) {sorted(unknown)}; "
                f"known: {sorted(known)}")
        if "tenants" not in payload or "models" not in payload:
            raise ValueError("fleet config needs 'tenants' and 'models'")
        tenants = tuple(
            _from_keys(SLOClass, {**t, "route": tuple(t.get("route", ()))},
                       f"tenant #{i}")
            for i, t in enumerate(payload["tenants"]))
        models = tuple(
            _from_keys(FleetModelSpec, m, f"model #{i}")
            for i, m in enumerate(payload["models"]))
        pacing = _from_keys(PacingSpec, payload.get("pacing", {}), "pacing")
        router = _from_keys(RouterConfig, payload.get("router", {}),
                            "router")
        return cls(tenants=tenants, models=models, pacing=pacing,
                   router=router, seed=int(payload.get("seed", 0)))

    @classmethod
    def from_json(cls, path) -> "FleetConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenants": [t.as_dict() for t in self.tenants],
            "models": [m.as_dict() for m in self.models],
            "pacing": self.pacing.as_dict(),
            "router": self.router.as_dict(),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class WorkloadEntry:
    """One model's slice of the observed traffic mix."""

    model: str
    spec: NetworkSpec
    share: float
    deadline_ms: float

    def as_dict(self) -> Dict[str, object]:
        return {"model": self.model, "share": round(self.share, 4),
                "deadline_ms": self.deadline_ms}


@dataclass(frozen=True)
class FleetWorkload:
    """The fleet's observed traffic summarized for the design tools.

    ``seed_network()`` is the dominant-share spec — the network
    :class:`~repro.core.codesign.CoDesignLoop` should tailor the
    machine to; ``search_inputs()`` are keyword arguments for
    :func:`~repro.core.search.hardware_aware_search` (the machine
    config matching the fleet's pacing, plus the seed), with
    ``latency_budget_ms`` as the natural argument to the result's
    ``best_under_latency``.
    """

    entries: Tuple[WorkloadEntry, ...]
    latency_budget_ms: float
    array_size: int
    rf_entries: int
    seed: int = 0

    def seed_network(self) -> NetworkSpec:
        if not self.entries:
            raise ValueError("no traffic observed — nothing to seed with")
        return max(self.entries, key=lambda e: e.share).spec

    def search_inputs(self) -> Dict[str, object]:
        from repro.accel.config import squeezelerator
        return {
            "config": squeezelerator(self.array_size, self.rf_entries),
            "seed": self.seed,
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "entries": [e.as_dict() for e in self.entries],
            "latency_budget_ms": self.latency_budget_ms,
            "array_size": self.array_size,
            "rf_entries": self.rf_entries,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FleetStats:
    """Point-in-time roll-up of the whole fleet."""

    tenants: Dict[str, Dict[str, object]]
    models: Dict[str, ServerStats]
    routing: Dict[str, Dict[str, object]]
    elapsed_s: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenants": {name: dict(stats)
                        for name, stats in self.tenants.items()},
            "models": {slug: stats.as_dict()
                       for slug, stats in self.models.items()},
            "routing": {group: dict(stats)
                        for group, stats in self.routing.items()},
            "elapsed_s": round(self.elapsed_s, 3),
        }


class _FleetItem:
    """One queued fleet request: payload, outer future, absolute deadline."""

    __slots__ = ("x", "response", "deadline_at")

    def __init__(self, x: np.ndarray, response: PendingResponse,
                 deadline_at: float) -> None:
        self.x = x
        self.response = response
        self.deadline_at = deadline_at


class _TenantState:
    """Mutable per-tenant bookkeeping (counters under ``lock``)."""

    def __init__(self, slo: SLOClass, bucket: Optional[TokenBucket],
                 input_shape: Tuple[int, int, int]) -> None:
        self.slo = slo
        self.bucket = bucket
        self.input_shape = input_shape
        self.lock = threading.Lock()
        self.accepted = 0
        self.quota_rejected = 0
        self.shed = 0
        self.expired = 0
        self.completed = 0
        self.failed = 0
        self.latency = LatencyHistogram()
        self.dispatched: Dict[str, int] = {}


class ModelFleet:
    """Several resident models behind one multi-tenant admission plane.

    ``accuracy_of`` overrides the published-accuracy table for router
    candidate scoring (tests route between synthetic specs);
    ``clock`` is injectable for deterministic tests.  Use as a context
    manager, exactly like :class:`~repro.serve.Server`::

        config = FleetConfig.from_json("fleet.json")
        with ModelFleet(config) as fleet:
            future = fleet.submit("interactive", image)
            logits = future.result()
            print(fleet.stats().as_dict())
    """

    def __init__(self, config: FleetConfig,
                 accuracy_of: Optional[Callable[[str], float]] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

        # -- resident models: spec + server per slug ----------------------
        self._specs: Dict[str, NetworkSpec] = {}
        self._servers: Dict[str, Server] = {}
        self._expected_ms: Dict[str, float] = {}
        self._name_to_slug: Dict[str, str] = {}
        rng = np.random.default_rng(config.seed)
        for model in config.models:
            spec = _build_spec(model.slug)
            self._specs[model.slug] = spec
            self._name_to_slug[spec.name] = model.slug
            service_time = model.service_time
            if service_time is None and config.pacing.sim:
                service_time = accelerator_service_time(
                    spec,
                    array_size=config.pacing.array_size,
                    rf_entries=config.pacing.rf_entries,
                    time_scale=config.pacing.time_scale)
            if service_time is not None:
                per_image_s = getattr(service_time, "per_image_s",
                                      service_time(1))
                self._expected_ms[spec.name] = per_image_s * 1e3
            net = GraphNetwork(spec, rng=rng, batch_norm=True).eval()
            server_config = ServerConfig(
                workers=model.workers,
                max_batch_size=model.max_batch_size,
                max_wait_ms=model.max_wait_ms,
                queue_depth=model.queue_depth,
                service_time=service_time,
                worker_mode=model.worker_mode,
                quantized_bits=model.quantized_bits,
            )
            self._servers[model.slug] = Server.for_network(
                net, server_config, name=f"fleet:{model.slug}")

        # -- routers: one per distinct route group ------------------------
        self._routers: Dict[Tuple[str, ...], VariantRouter] = {}
        self._tenant_router: Dict[str, Optional[VariantRouter]] = {}
        for tenant in config.tenants:
            if not tenant.route:
                self._tenant_router[tenant.name] = None
                continue
            group = tenant.route
            if group not in self._routers:
                specs = [self._specs[slug] for slug in group]
                shapes = {self._input_shape(slug) for slug in group}
                if len(shapes) != 1:
                    raise ValueError(
                        f"route group {list(group)} mixes input shapes "
                        f"{sorted(shapes)}; a tenant's requests must fit "
                        f"every candidate")
                self._routers[group] = VariantRouter(
                    build_candidate_set(
                        specs, config.router, accuracy_of=accuracy_of,
                        expected_ms_of=self._expected_ms),
                    config.router, clock=clock)
            router = self._routers[group]
            router.register_class(tenant.name, tenant.deadline_ms)
            self._tenant_router[tenant.name] = router

        # -- tenants: admission state -------------------------------------
        self._tenants: Dict[str, _TenantState] = {}
        for tenant in config.tenants:
            shape_slug = tenant.model or tenant.route[0]
            self._tenants[tenant.name] = _TenantState(
                slo=tenant,
                bucket=tenant.bucket(clock=clock),
                input_shape=self._input_shape(shape_slug))
        self._queue = WeightedFairQueue(
            {t.name: t for t in config.tenants})
        self._scheduler: Optional[threading.Thread] = None
        self._last_refresh = 0.0

    def _input_shape(self, slug: str) -> Tuple[int, int, int]:
        shape = self._specs[slug].input_shape
        return (shape.channels, shape.height, shape.width)

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Tenant names, in config order (also the fleet duck-type tag
        :meth:`repro.serve.LoadGenerator.run_mix` dispatches on)."""
        return tuple(t.name for t in self.config.tenants)

    @property
    def models(self) -> Tuple[str, ...]:
        return tuple(m.slug for m in self.config.models)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ModelFleet":
        with self._lock:
            if self._closed:
                raise ServerClosed("fleet already shut down")
            if self._started:
                return self
            self._started = True
            self._started_at = self._clock()
        for server in self._servers.values():
            server.start()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="fleet-scheduler",
            daemon=True)
        self._scheduler.start()
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Stop the fleet; every accepted request still completes.

        ``drain=True`` dispatches everything already fair-queued and
        lets the per-model servers drain; ``drain=False`` cancels
        queued requests with :class:`~repro.serve.ServerClosed`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stopped_at = self._clock()
        self._queue.close()
        if not drain:
            for tenant, item in self._queue.drain():
                self._fail(self._tenants[tenant], item.response,
                           ServerClosed("fleet shut down before dispatch"))
        if self._scheduler is not None:
            self._scheduler.join()
        for server in self._servers.values():
            server.shutdown(drain=drain)

    def __enter__(self) -> "ModelFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- admission ---------------------------------------------------------

    def submit(self, tenant: str, x: np.ndarray,
               deadline_ms: Optional[float] = None) -> PendingResponse:
        """Enqueue one request for ``tenant``; returns its future.

        Raises :class:`~repro.serve.QuotaExceeded` when the tenant's
        token bucket is empty, :class:`~repro.serve.QueueFull` when
        its fair-queue lane is at depth, and
        :class:`~repro.serve.ServerClosed` when the fleet is not
        accepting work.  ``deadline_ms`` defaults to the tenant's SLO
        deadline and covers the whole fleet residence — fair queue
        plus server queue plus execution.
        """
        state = self._tenants.get(tenant)
        if state is None:
            raise KeyError(
                f"unknown tenant {tenant!r}; known: {list(self._tenants)}")
        if not self._started or self._closed:
            raise ServerClosed("fleet is not accepting work")
        if state.bucket is not None and not state.bucket.try_acquire():
            with state.lock:
                state.quota_rejected += 1
            obs.count("fleet.quota_rejected")
            raise QuotaExceeded(
                f"tenant {tenant!r} over quota "
                f"({state.slo.quota_rps:g} rps sustained)")
        x = np.asarray(x)
        if x.shape != state.input_shape:
            raise ValueError(
                f"tenant {tenant!r} input shape {x.shape} does not match "
                f"its models' {state.input_shape}")
        deadline_ms = (deadline_ms if deadline_ms is not None
                       else state.slo.deadline_ms)
        if deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        response = PendingResponse()
        item = _FleetItem(x, response,
                          deadline_at=self._clock() + deadline_ms / 1e3)
        try:
            admitted = self._queue.put(tenant, item)
        except RuntimeError:
            raise ServerClosed("fleet is not accepting work") from None
        if not admitted:
            with state.lock:
                state.shed += 1
            obs.count("fleet.queue_full")
            raise QueueFull(
                f"tenant {tenant!r} fair-queue lane is at depth "
                f"{state.slo.queue_depth}")
        with state.lock:
            state.accepted += 1
        obs.count("fleet.accepted")
        return response

    # -- scheduling --------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while True:
            got = self._queue.get(timeout=0.05)
            self._maybe_refresh_router()
            if got is None:
                if self._queue.closed and self._queue.qsize() == 0:
                    return
                continue
            tenant, item = got
            self._dispatch(tenant, item)

    def _dispatch(self, tenant: str, item: _FleetItem) -> None:
        state = self._tenants[tenant]
        now = self._clock()
        remaining_ms = (item.deadline_at - now) * 1e3
        if remaining_ms <= 0:
            self._fail(state, item.response, DeadlineExceeded(
                f"tenant {tenant!r} request expired in the fair queue"))
            return
        router = self._tenant_router[tenant]
        if router is None:
            slug = state.slo.model
        else:
            slug = self._name_to_slug[router.route(tenant)]
        with state.lock:
            state.dispatched[slug] = state.dispatched.get(slug, 0) + 1
        try:
            inner = self._servers[slug].submit(
                item.x, deadline_ms=remaining_ms)
        except ServeError as error:
            self._fail(state, item.response, error)
            return
        outer = item.response

        def chain(done: PendingResponse, state=state, outer=outer) -> None:
            self._finish(state, outer, done)

        inner.on_done(chain)

    def _finish(self, state: _TenantState, outer: PendingResponse,
                inner: PendingResponse) -> None:
        error = inner.exception(timeout=0)
        if error is not None:
            self._fail(state, outer, error)
            return
        outer._complete(inner.result(timeout=0))
        with state.lock:
            state.completed += 1
            latency = outer.latency_s
            if latency is not None:
                state.latency.record(latency * _US)

    def _fail(self, state: _TenantState, outer: PendingResponse,
              error: BaseException) -> None:
        outer._fail(error)
        with state.lock:
            if isinstance(error, DeadlineExceeded):
                state.expired += 1
            else:
                state.failed += 1

    def _maybe_refresh_router(self) -> None:
        if not self._routers:
            return
        now = self._clock()
        if now - self._last_refresh < self.config.router.refresh_s:
            return
        self._last_refresh = now
        for router in self._routers.values():
            for variant in router.frontier:
                slug = self._name_to_slug[variant.model]
                router.observe(variant.model,
                               self._servers[slug].latency_histogram())
            router.refresh(now)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> FleetStats:
        tenants: Dict[str, Dict[str, object]] = {}
        for name, state in self._tenants.items():
            with state.lock:
                summary = state.latency.summary()
                latency_ms = {key: summary[key] / 1e3 for key in
                              ("mean", "min", "max", "p50", "p95", "p99")}
                latency_ms["count"] = summary["count"]
                router = self._tenant_router[name]
                tenants[name] = {
                    "deadline_ms": state.slo.deadline_ms,
                    "current_model": (state.slo.model if router is None
                                      else self._name_to_slug[
                                          router.current(name)]),
                    "accepted": state.accepted,
                    "quota_rejected": state.quota_rejected,
                    "shed": state.shed,
                    "expired": state.expired,
                    "completed": state.completed,
                    "failed": state.failed,
                    "dispatched": dict(state.dispatched),
                    "latency_ms": latency_ms,
                }
        routing = {"+".join(group): router.stats()
                   for group, router in self._routers.items()}
        with self._lock:
            started = self._started_at
            end = (self._stopped_at if self._stopped_at is not None
                   else self._clock())
        elapsed = max(end - started, 1e-9) if started else 0.0
        for name, report in tenants.items():
            obs.gauge(f"fleet.{name}.p99_ms", report["latency_ms"]["p99"])
        return FleetStats(
            tenants=tenants,
            models={slug: server.stats()
                    for slug, server in self._servers.items()},
            routing=routing,
            elapsed_s=elapsed,
        )

    def sample_inputs(self, n: int = 8, seed: int = 0
                      ) -> Dict[str, np.ndarray]:
        """Per-tenant input batches of the right shape (for load gen)."""
        rng = np.random.default_rng(seed)
        return {
            name: rng.normal(size=(n, *state.input_shape))
            for name, state in self._tenants.items()
        }

    # -- co-design export --------------------------------------------------

    def export_workload(self) -> FleetWorkload:
        """Summarize observed traffic into the design tools' inputs.

        Each model's share is its fraction of dispatched requests; the
        deadline attached to it is the *tightest* SLO among the
        tenants that hit it, and the workload's overall
        ``latency_budget_ms`` is the fleet's binding (minimum)
        deadline.  Falls back to the configured tenant shares when no
        traffic has been dispatched yet, so the export is always
        well-formed.
        """
        dispatched: Dict[str, int] = {}
        deadline: Dict[str, float] = {}
        for state in self._tenants.values():
            with state.lock:
                counts = dict(state.dispatched)
            for slug, count in counts.items():
                dispatched[slug] = dispatched.get(slug, 0) + count
                deadline[slug] = min(
                    deadline.get(slug, float("inf")),
                    state.slo.deadline_ms)
        if not dispatched:
            for tenant in self.config.tenants:
                slug = tenant.model or tenant.route[0]
                dispatched[slug] = dispatched.get(slug, 0) + 1
                deadline[slug] = min(
                    deadline.get(slug, float("inf")), tenant.deadline_ms)
        total = sum(dispatched.values())
        entries = tuple(
            WorkloadEntry(
                model=slug,
                spec=self._specs[slug],
                share=count / total,
                deadline_ms=deadline[slug],
            )
            for slug, count in sorted(dispatched.items(),
                                      key=lambda kv: -kv[1]))
        return FleetWorkload(
            entries=entries,
            latency_budget_ms=min(t.deadline_ms
                                  for t in self.config.tenants),
            array_size=self.config.pacing.array_size,
            rf_entries=self.config.pacing.rf_entries,
            seed=self.config.seed,
        )
