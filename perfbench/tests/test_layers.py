"""Self-time arithmetic and the per-layer metrics built on it."""

import sys

import pytest

from layers import (
    OP_SPAN, SELF_TIME_METRICS, install_spans, layer_metrics, self_times,
    tracing_overhead,
)
from metrics import PER_LAYER


def span(span_id, parent, name, start, end):
    return {"id": span_id, "parent": parent, "name": name,
            "ts_us": start * 1e6, "dur_us": (end - start) * 1e6}


def test_self_time_subtracts_the_union_of_children():
    records = [
        span(1, None, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 3.0),
        span(3, 1, "b", 2.0, 4.0),   # overlaps a: covered once
        span(4, 1, "c", 5.0, 6.0),
        span(5, 2, "a.child", 1.5, 2.0),
        span(6, 1, "late", 9.5, 11.0),  # runs past its parent: clipped
    ]
    selfs = self_times(records)
    assert selfs[1] == pytest.approx(10.0 - (3.0 + 1.0 + 0.5))
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(0.5)
    assert selfs[6] == pytest.approx(1.5)


def test_layer_metrics_attribute_self_times_per_op():
    records = [
        span(1, None, OP_SPAN, 0.0, 10.0),
        span(2, 1, "tdf.simulate", 1.0, 5.0),
        span(3, 2, "tdf.compile", 2.0, 3.0),
        span(4, 1, "dynamic.match", 6.0, 8.0),
        span(5, 1, "coverage", 8.0, 8.5),
        span(6, 5, "core.coverage", 8.1, 8.3),
        span(7, None, "tdf.simulate", 20.0, 30.0),  # outside any op: ignored
    ]
    counters = [
        {"kind": "counter", "name": "tdf.periods", "labels": {"cluster": "x"},
         "value": 1500},
        {"kind": "counter", "name": "tdf.periods", "labels": {"cluster": "y"},
         "value": 1500},
        {"kind": "counter", "name": "tdf.schedule_cache_hits", "labels": {},
         "value": 3},
        {"kind": "counter", "name": "tdf.schedule_cache_misses", "labels": {},
         "value": 1},
    ]
    out = layer_metrics(records, counters, {"mutation.viable_ratio": 0.5})
    assert set(out) == {m["name"] for m in PER_LAYER} - {"obs.tracing_overhead"}
    assert out["tdf.simulate_s"] == pytest.approx(3.0)
    assert out["tdf.compile_s"] == pytest.approx(1.0)
    assert out["instrument.match_s"] == pytest.approx(2.0)
    assert out["core.coverage_s"] == pytest.approx(0.5)
    assert out["tdf.periods"] == 3000
    assert out["tdf.periods_per_s"] == pytest.approx(1000.0)
    assert out["tdf.schedule_cache_hit_ratio"] == pytest.approx(0.75)
    assert out["mutation.viable_ratio"] == 0.5
    assert out["obs.traced_op_s"] == pytest.approx(10.0)
    attributed = sum(out[name] for name in SELF_TIME_METRICS)
    assert attributed == pytest.approx(6.5)
    assert out["obs.attributed_share"] == pytest.approx(0.65)


def test_self_times_never_exceed_the_op_wall():
    # A nested chain with back-to-back siblings at every level, as a
    # single-threaded span stack produces: every instant of the op
    # belongs to exactly one span's self time.
    records = [span(1, None, OP_SPAN, 0.0, 4.0)]
    names = ("tdf.simulate", "tdf.compile", "tdf.elaborate", "dynamic.match")
    parent, start, end = 1, 0.0, 4.0
    for i, name in enumerate(names, start=2):
        start, end = start + 0.1, end - 0.05
        mid = (start + end) / 2
        records.append(span(i, parent, name, start, mid))
        records.append(span(100 + i, parent, "coverage", mid, end))
        parent, end = i, mid
    selfs = self_times(records)
    assert sum(selfs.values()) == pytest.approx(4.0)
    out = layer_metrics(records, [])
    assert 0.0 < out["obs.attributed_share"] <= 1.0
    assert sum(out[name] for name in SELF_TIME_METRICS) <= 4.0 + 1e-9


def test_installed_spans_record_only_inside_a_session():
    from repro import DftConfig, TestSuite, run_dft
    from repro.obs import Telemetry, telemetry_session
    from repro.systems.sensor import SenseTop, paper_testcases

    original = sys.modules["repro.tdf.simulator"].elaborate
    uninstall = install_spans()
    try:
        suite = TestSuite("sensor", paper_testcases())
        run_dft(SenseTop, suite, DftConfig())  # no session: nothing recorded
        session = Telemetry()
        with telemetry_session(session), session.span(OP_SPAN):
            run_dft(SenseTop, suite, DftConfig())
    finally:
        uninstall()
    assert sys.modules["repro.tdf.simulator"].elaborate is original
    names = set(session.span_names())
    assert {"analysis.static", "core.cluster_build", "tdf.elaborate",
            "tdf.finish", "instrument.instrument", "core.coverage"} <= names
    out = layer_metrics(session.span_records(), session.metrics.records())
    assert out["core.cluster_builds"] == len(suite) + 1
    assert 0.0 < out["obs.attributed_share"] <= 1.0


def test_self_time_metrics_are_per_layer_seconds():
    units = {m["name"]: m["unit"] for m in PER_LAYER}
    assert all(units.get(name) == "s" for name in SELF_TIME_METRICS)


def test_tracing_overhead_pairs_adjacent_warm_ops_within_a_run():
    def ops(*walls):
        return [{"wall": w, "traced": i % 2 == 0} for i, w in enumerate(walls)]

    # The cold first op (5.0) is in no pair; no pair spans two runs.
    runs = [ops(5.0, 1.0, 1.1, 1.0, 1.3), ops(9.0, 2.0, 2.4)]
    assert tracing_overhead(runs) == pytest.approx(1.2)
    assert tracing_overhead([ops(5.0)]) == 0.0
