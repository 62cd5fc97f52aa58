"""JSON (de)serialization of simulation results.

Reports and schedules are plain dataclasses; these helpers flatten them
to JSON-compatible dictionaries so benchmark runs can be archived,
diffed across calibrations, or consumed by external plotting tools.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict

from repro.accel.report import LayerReport, NetworkReport
from repro.graph.categories import LayerCategory

if TYPE_CHECKING:  # import cycle: diskcache -> serialize -> schedule
    from repro.accel.schedule import Program


def layer_report_to_dict(layer: LayerReport) -> Dict[str, Any]:
    """Flatten one layer report."""
    return {
        "name": layer.name,
        "category": str(layer.category),
        "dataflow": layer.dataflow,
        "macs": layer.macs,
        "compute_cycles": layer.compute_cycles,
        "dram_cycles": layer.dram_cycles,
        "total_cycles": layer.total_cycles,
        "energy": layer.energy,
        "energy_breakdown": dict(layer.energy_breakdown),
    }


def network_report_to_dict(report: NetworkReport) -> Dict[str, Any]:
    """Flatten a whole network report (layer list + totals)."""
    return {
        "network": report.network,
        "machine": report.machine,
        "policy": report.policy,
        "frequency_hz": report.frequency_hz,
        "num_pes": report.num_pes,
        "total_cycles": report.total_cycles,
        "total_energy": report.total_energy,
        "inference_ms": report.inference_ms,
        "mean_utilization": report.mean_utilization,
        "layers": [layer_report_to_dict(layer) for layer in report.layers],
    }


_CATEGORIES = {str(c): c for c in LayerCategory}


def layer_report_from_dict(entry: Dict[str, Any]) -> LayerReport:
    """Rebuild one layer report saved by :func:`layer_report_to_dict`.

    The round trip is bit-identical: every float survives JSON encoding
    exactly (``json`` emits ``repr``-precision literals), so
    ``layer_report_from_dict(layer_report_to_dict(r)) == r`` field for
    field.
    """
    return LayerReport(
        name=entry["name"],
        category=_CATEGORIES[entry["category"]],
        dataflow=entry["dataflow"],
        macs=int(entry["macs"]),
        compute_cycles=float(entry["compute_cycles"]),
        dram_cycles=float(entry["dram_cycles"]),
        total_cycles=float(entry["total_cycles"]),
        energy=float(entry["energy"]),
        energy_breakdown=dict(entry["energy_breakdown"]),
    )


def network_report_from_dict(data: Dict[str, Any]) -> NetworkReport:
    """Rebuild a report saved by :func:`network_report_to_dict`."""
    layers = [layer_report_from_dict(entry) for entry in data["layers"]]
    return NetworkReport(
        network=data["network"],
        machine=data["machine"],
        policy=data["policy"],
        layers=layers,
        frequency_hz=float(data["frequency_hz"]),
        num_pes=int(data["num_pes"]),
    )


def program_to_dict(program: "Program") -> Dict[str, Any]:
    """Flatten a compiled schedule."""
    return {
        "network": program.network,
        "machine": program.machine.name,
        "total_cycles": program.total_cycles,
        "total_dma_bytes": program.total_dma_bytes,
        "directives": [
            {
                "index": d.index,
                "layer": d.layer,
                "dataflow": d.dataflow,
                "mapping": d.mapping,
                "resident_operand": d.resident_operand,
                "dma": {
                    "weight_elems": d.dma.weight_elems,
                    "input_elems": d.dma.input_elems,
                    "output_elems": d.dma.output_elems,
                },
                "compute_cycles": d.compute_cycles,
                "dram_cycles": d.dram_cycles,
                "total_cycles": d.total_cycles,
                "utilization": d.utilization,
                "notes": list(d.notes),
            }
            for d in program.directives
        ],
    }


def save_report(report: NetworkReport, path: str) -> None:
    """Write a report to a JSON file."""
    with open(path, "w") as handle:
        json.dump(network_report_to_dict(report), handle, indent=2)


def load_report(path: str) -> NetworkReport:
    """Read a report written by :func:`save_report`."""
    with open(path) as handle:
        return network_report_from_dict(json.load(handle))
