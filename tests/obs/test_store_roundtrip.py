"""Round-trip property: columnar recording must be invisible.

The columnar probe store replaces the in-memory probe-event list behind
the instrumenter; encode -> spill -> decode must hand the matcher the
exact event tuples the list would have held — same values, same order,
same ``WriterKind`` singletons — and therefore the exact matched pair
sets, for random multirate clusters, both engines and spill chunk
sizes 1 / 7 / default.
"""

import pytest
from hypothesis import given, settings

from repro.analysis import analyze_cluster
from repro.instrument import DynamicAnalyzer, ProbeRuntime
from repro.instrument.matching import match_events
from repro.instrument.probes import WriterKind
from repro.obs.store import DEFAULT_CHUNK_SIZE, ColumnarProbeStore
from repro.tdf import Simulator
from repro.testing import TestCase
from repro.testing.generate import (
    build_cluster,
    cluster_duration,
    rate_strategy,
    values_strategy,
)

CHUNK_SIZES = (1, 7, DEFAULT_CHUNK_SIZE)


def _record(values, up_rate, down_rate, engine, store):
    """One instrumented simulation; returns (events, match) without
    closing ``store`` so the raw tuples stay inspectable."""
    factory = lambda: build_cluster(values, up_rate, down_rate)
    static = analyze_cluster(factory())
    analyzer = DynamicAnalyzer(factory, static, engine=engine)
    cluster = factory()
    probe = ProbeRuntime(cluster.name, store=store)
    analyzer._instrument(cluster, probe)
    analyzer._install_hooks(cluster, probe)
    testcase = TestCase("t", cluster_duration(values), lambda c: None)
    testcase.apply(cluster)
    simulator = Simulator(cluster, engine=analyzer.engine)
    simulator.run(testcase.duration)
    simulator.finish()
    match = match_events(probe, testcase.name, static.model_start_lines)
    return list(probe._buf), match


@settings(max_examples=8, deadline=None)
@given(values=values_strategy(max_size=4), up=rate_strategy(), down=rate_strategy())
def test_columnar_roundtrip_identical(values, up, down):
    for engine in ("interp", "block"):
        baseline_events, baseline_match = _record(values, up, down, engine, None)
        assert baseline_events, "the workload must actually record events"
        for chunk_size in CHUNK_SIZES:
            store = ColumnarProbeStore(chunk_size=chunk_size)
            try:
                events, match = _record(values, up, down, engine, store)
                assert events == baseline_events
                # Decoded WriterKind fields must be the enum singletons
                # (matching relies on identity checks).
                for event in events:
                    if len(event) == 7:
                        assert event[6] in WriterKind
                        assert WriterKind(event[6].value) is event[6]
                assert match.pairs == baseline_match.pairs
                assert match.use_without_def == baseline_match.use_without_def
            finally:
                store.close()


@settings(max_examples=4, deadline=None)
@given(values=values_strategy(max_size=4), up=rate_strategy(), down=rate_strategy())
def test_store_reiterable_and_counts(values, up, down):
    """The store re-iterates identically and tracks per-tag counts."""
    store = ColumnarProbeStore(chunk_size=5)
    try:
        events, _ = _record(values, up, down, "block", store)
        assert list(store) == events
        assert list(store) == events  # second pass, post-spill
        assert len(store) == len(events)
        nv, nw, nr = store.event_counts()
        assert nv == sum(1 for e in events if e[0] in (0, 1))
        assert nw == sum(1 for e in events if len(e) == 7)
        assert nr == sum(1 for e in events if len(e) == 8)
    finally:
        store.close()
