"""Top-level accelerator simulator.

Ties together the dataflow models, the DRAM model and the energy model:

* ``policy = WEIGHT_STATIONARY`` / ``OUTPUT_STATIONARY`` — the Table 2
  reference architectures: every convolution runs under one dataflow.
* ``policy = HYBRID`` — the Squeezelerator: each layer is simulated
  under both dataflows and the faster one is selected, with no switching
  overhead (paper §4.1.2).

Fully-connected layers run as matrix-vector products on the WS path
under every policy; at batch size 1 they are DRAM-bandwidth-bound, so
the dataflow choice is immaterial for them — this reproduces the paper's
observation that AlexNet's FC layers "cannot take advantage of hardware
acceleration by either dataflow architecture".

Layer simulation is memoized through :mod:`repro.accel.simcache`: a
whole-network run dedupes repeated layer shapes by default (networks
like 1.0-SqNxt-23 repeat identical blocks dozens of times), and an
injected shared :class:`SimulationCache` extends the reuse across
machine configurations, e.g. inside a parameter sweep.  Cached and
uncached runs produce bit-identical reports; only
``NetworkReport.cache_stats`` (excluded from equality) differs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.accel.config import AcceleratorConfig, DataflowPolicy, SelectionObjective
from repro.accel.dataflows.output_stationary import OutputStationaryModel
from repro.accel.dataflows.weight_stationary import WeightStationaryModel
from repro.accel.dram import combine_compute_and_dram, layer_traffic
from repro.accel.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.accel.report import AccessCounts, DataflowPerf, LayerReport, NetworkReport
from repro.accel.simcache import (
    CacheStats,
    SimulationCache,
    buffer_signature,
    config_fingerprint,
    workload_shape_key,
)
from repro.accel.workload import ConvWorkload, network_workloads
from repro.graph.network_spec import NetworkSpec


class AcceleratorSimulator:
    """Performance and energy estimator for one machine configuration.

    ``cache`` injects a shared :class:`SimulationCache` (reused across
    networks, configs and threads); with ``cache=None`` each
    :meth:`simulate` call still dedupes repeated layer shapes through an
    ephemeral per-call cache unless ``use_cache=False`` forces the
    from-scratch path.
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        energy_model: Optional[EnergyModel] = None,
        cache: Optional[SimulationCache] = None,
        use_cache: bool = True,
    ) -> None:
        self.config = config
        self.energy_model = energy_model or DEFAULT_ENERGY_MODEL
        self._ws = WeightStationaryModel()
        self._os = OutputStationaryModel()
        self._cache = cache
        self._use_cache = use_cache or cache is not None
        # Per-dataflow config fingerprints are layer-independent; compute
        # them once per simulator (they sit in every cache key).
        self._fingerprints = {
            dataflow: config_fingerprint(config, dataflow)
            for dataflow in ("WS", "OS")
        }
        # Buffer signatures depend only on the layer shape and this
        # simulator's (fixed) config — memoize per (shape, dataflow).
        self._buffer_signatures: Dict[Tuple, Tuple] = {}

    # -- per-layer --------------------------------------------------------

    def _buffer_signature(self, workload: ConvWorkload, dataflow: str,
                          shape_key: Tuple) -> Tuple:
        memo_key = (shape_key, dataflow)
        signature = self._buffer_signatures.get(memo_key)
        if signature is None:
            signature = buffer_signature(workload, dataflow, self.config)
            self._buffer_signatures[memo_key] = signature
        return signature

    def _option(self, workload: ConvWorkload, dataflow: str,
                cache: Optional[SimulationCache],
                shape_key=None) -> Tuple[LayerReport, bool]:
        """One layer under one dataflow: (report, was cache hit).

        A hit may come back carrying the shape-sharing layer's name and
        category — :meth:`_rebind` restores the caller's identity.  The
        whole-network path rebinds only the report the policy selects.
        """
        model = self._ws if dataflow == "WS" else self._os
        if cache is None:
            return self._finish(workload,
                                model.simulate(workload, self.config)), False
        if shape_key is None:
            shape_key = workload_shape_key(workload)
        key = (
            shape_key,
            dataflow,
            self._fingerprints[dataflow],
            self._buffer_signature(workload, dataflow, shape_key),
            self.energy_model,
        )
        cached = cache.get(key)
        if cached is not None:
            return cached, True
        report = self._finish(workload, model.simulate(workload, self.config))
        cache.put(key, report)
        return report, False

    @staticmethod
    def _rebind(report: LayerReport, workload: ConvWorkload) -> LayerReport:
        """Re-label a shape-shared cached report with this layer's identity."""
        if (report.name == workload.name
                and report.category is workload.category):
            return report
        return LayerReport(
            name=workload.name,
            category=workload.category,
            dataflow=report.dataflow,
            macs=report.macs,
            compute_cycles=report.compute_cycles,
            dram_cycles=report.dram_cycles,
            total_cycles=report.total_cycles,
            energy=report.energy,
            energy_breakdown=report.energy_breakdown,
        )

    def _options_counted(
        self, workload: ConvWorkload, cache: Optional[SimulationCache],
        dataflows: Optional[Tuple[str, ...]] = None,
    ) -> Tuple[Dict[str, LayerReport], int]:
        """Per-dataflow reports and the number of cache hits.

        The returned reports may carry a shape-sharing layer's identity;
        callers pass the policy's pick through :meth:`_rebind`.
        """
        if dataflows is None:
            dataflows = ("WS",) if workload.is_fc else ("WS", "OS")
        shape_key = workload_shape_key(workload) if cache is not None else None
        options: Dict[str, LayerReport] = {}
        hits = 0
        for dataflow in dataflows:
            options[dataflow], hit = self._option(workload, dataflow, cache,
                                                  shape_key)
            hits += hit
        return options, hits

    def _needed_dataflows(self, workload: ConvWorkload) -> Tuple[str, ...]:
        """Which dataflows the policy's selection actually consults."""
        if workload.is_fc:
            return ("WS",)
        if self.config.policy is DataflowPolicy.HYBRID:
            return ("WS", "OS")
        return (str(self.config.policy),)

    def dataflow_options(self, workload: ConvWorkload) -> Dict[str, LayerReport]:
        """Simulate one layer under both dataflows (FC: WS path only)."""
        options, _ = self._options_counted(workload, self._cache)
        return {dataflow: self._rebind(report, workload)
                for dataflow, report in options.items()}

    def simulate_layer_with(self, workload: ConvWorkload,
                            model) -> LayerReport:
        """Simulate one layer under an arbitrary dataflow model.

        Used by the taxonomy study (repro.experiments.taxonomy) to
        evaluate RS and NLR alongside the machine's native WS/OS pair.
        This path is never cached — taxonomy models carry no fingerprint.
        """
        return self._finish(workload, model.simulate(workload, self.config))

    def _selection_key(self, report: LayerReport) -> float:
        objective = self.config.objective
        if objective is SelectionObjective.ENERGY:
            return report.energy
        if objective is SelectionObjective.EDP:
            return report.energy * report.total_cycles
        return report.total_cycles

    def _select(self, workload: ConvWorkload,
                options: Dict[str, LayerReport]) -> LayerReport:
        """Apply the machine's dataflow policy to the simulated options."""
        policy = self.config.policy
        if workload.is_fc or policy is DataflowPolicy.HYBRID:
            # The Squeezelerator picks the best dataflow per layer —
            # by time in the paper; energy/EDP objectives are an
            # extension (config.objective).
            return min(options.values(), key=self._selection_key)
        return options[str(policy)]

    def simulate_layer(self, workload: ConvWorkload) -> LayerReport:
        """Simulate one layer under the machine's dataflow policy."""
        options, _ = self._options_counted(
            workload, self._cache, self._needed_dataflows(workload))
        return self._rebind(self._select(workload, options), workload)

    def _finish(self, workload: ConvWorkload, perf: DataflowPerf) -> LayerReport:
        traffic = layer_traffic(workload, perf.dataflow, self.config)
        total = combine_compute_and_dram(perf.compute_cycles, traffic, self.config)
        accesses = AccessCounts(
            macs=perf.accesses.macs,
            rf_accesses=perf.accesses.rf_accesses,
            array_transfers=perf.accesses.array_transfers,
            gb_accesses=perf.accesses.gb_accesses,
            dram_elems=traffic.total_elems,
        )
        breakdown = self.energy_model.breakdown(accesses)
        return LayerReport(
            name=workload.name,
            category=workload.category,
            dataflow=perf.dataflow,
            macs=workload.macs,
            compute_cycles=perf.compute_cycles,
            dram_cycles=traffic.transfer_cycles(self.config),
            total_cycles=total,
            energy=sum(breakdown.values()),
            energy_breakdown=breakdown,
        )

    # -- whole network -----------------------------------------------------

    def simulate(self, network: NetworkSpec,
                 workloads: Optional[List[ConvWorkload]] = None) -> NetworkReport:
        """Batch-1 inference of a whole network.

        Repeated layer shapes are simulated once (see module docstring);
        the report carries the observed cache behaviour in
        ``cache_stats``.  ``workloads`` lets a caller that simulates the
        same network on many configs (the sweep engine) extract the
        workload list once instead of per config point.

        The report's ``cache_stats`` holds this network's hits and
        misses plus the memory tier's eviction and entry counts — all
        O(1) counters.
        """
        cache = self._cache
        if cache is None and self._use_cache:
            cache = SimulationCache()
        if workloads is None:
            workloads = network_workloads(network)
        layers: List[LayerReport] = []
        hits = lookups = 0
        with obs.span("accel.simulate", network=network.name,
                      machine=self.config.name,
                      policy=str(self.config.policy)) as net_span:
            # Hoisted so the disabled path pays one bool test per layer
            # instead of a kwargs-building no-op span call.
            traced = obs.is_enabled()
            for workload in workloads:
                if traced:
                    with obs.span("accel.layer", layer=workload.name) as sp:
                        options, n_hits = self._options_counted(
                            workload, cache, self._needed_dataflows(workload))
                        selected = self._rebind(
                            self._select(workload, options), workload)
                        sp.annotate(dataflow=selected.dataflow,
                                    cycles=selected.total_cycles,
                                    cache_hits=n_hits)
                else:
                    options, n_hits = self._options_counted(
                        workload, cache, self._needed_dataflows(workload))
                    selected = self._rebind(self._select(workload, options),
                                            workload)
                layers.append(selected)
                hits += n_hits
                lookups += len(options)
            net_span.annotate(layers=len(layers), cache_hits=hits,
                              cache_lookups=lookups)
        stats = None
        if cache is not None:
            stats = CacheStats(hits=hits, misses=lookups - hits,
                               evictions=cache.evictions, entries=len(cache))
        return NetworkReport(
            network=network.name,
            machine=self.config.name,
            policy=str(self.config.policy),
            layers=layers,
            frequency_hz=self.config.frequency_hz,
            num_pes=self.config.num_pes,
            cache_stats=stats,
        )

def simulate(network: NetworkSpec, config: AcceleratorConfig,
             cache: Optional[SimulationCache] = None) -> NetworkReport:
    """Convenience one-shot simulation."""
    return AcceleratorSimulator(config, cache=cache).simulate(network)
