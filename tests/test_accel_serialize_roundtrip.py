"""Property tests: report serialization round trips bit-identically.

The persistent simulation cache and saved reports
(:func:`~repro.accel.serialize.save_report` / ``load_report``) both
assume that ``from_dict(to_dict(report))`` — including a trip through actual JSON
text — reproduces every field exactly.  Python floats survive JSON
because ``json`` emits ``repr``-precision literals (shortest round
trip), so the property genuinely holds for arbitrary finite values, not
just pretty ones; hypothesis hunts for counterexamples.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.report import LayerReport, NetworkReport
from repro.accel.serialize import (
    layer_report_from_dict,
    layer_report_to_dict,
    network_report_from_dict,
    network_report_to_dict,
)
from repro.graph import LayerCategory

finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(min_size=1, max_size=20)


@st.composite
def layer_reports(draw):
    breakdown_keys = st.sampled_from(["mac", "rf", "array", "gb", "dram"])
    return LayerReport(
        name=draw(names),
        category=draw(st.sampled_from(list(LayerCategory))),
        dataflow=draw(st.sampled_from(["WS", "OS", "RS", "NLR"])),
        macs=draw(st.integers(min_value=0, max_value=2**53)),
        compute_cycles=draw(finite),
        dram_cycles=draw(finite),
        total_cycles=draw(finite),
        energy=draw(finite),
        energy_breakdown=draw(st.dictionaries(breakdown_keys, finite,
                                              max_size=5)),
    )


@st.composite
def network_reports(draw):
    return NetworkReport(
        network=draw(names),
        machine=draw(names),
        policy=draw(st.sampled_from(["HYBRID", "WS", "OS"])),
        layers=draw(st.lists(layer_reports(), max_size=4)),
        frequency_hz=draw(st.floats(min_value=1.0, max_value=1e10,
                                    allow_nan=False, allow_infinity=False)),
        num_pes=draw(st.integers(min_value=1, max_value=4096)),
    )


def through_json(data):
    """The exact path disk cache and saved-report payloads travel."""
    return json.loads(json.dumps(data))


@settings(max_examples=120, deadline=None)
@given(layer_reports())
def test_layer_report_bit_identical(report):
    loaded = layer_report_from_dict(through_json(layer_report_to_dict(report)))
    assert loaded == report
    assert loaded.__dict__ == report.__dict__  # field-for-field, not just eq


@settings(max_examples=60, deadline=None)
@given(network_reports())
def test_network_report_bit_identical(report):
    loaded = network_report_from_dict(
        through_json(network_report_to_dict(report)))
    assert loaded == report
    assert [layer.__dict__ for layer in loaded.layers] \
        == [layer.__dict__ for layer in report.layers]
    assert loaded.total_cycles == report.total_cycles
    assert loaded.total_energy == report.total_energy
    assert loaded.inference_ms == report.inference_ms


@settings(max_examples=60, deadline=None)
@given(layer_reports())
def test_double_round_trip_is_stable(report):
    """to_dict(from_dict(d)) == d — no drift on repeated save/load."""
    once = through_json(layer_report_to_dict(report))
    twice = through_json(
        layer_report_to_dict(layer_report_from_dict(once)))
    assert once == twice


def test_every_category_string_round_trips():
    for category in LayerCategory:
        report = LayerReport(
            name="l", category=category, dataflow="WS", macs=1,
            compute_cycles=1.0, dram_cycles=0.0, total_cycles=1.0,
            energy=1.0)
        assert layer_report_from_dict(
            layer_report_to_dict(report)).category is category
