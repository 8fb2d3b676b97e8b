"""Vectorized matching kernel: dispatch, semantics, scan equivalence.

The vector kernel (:mod:`repro.instrument.matchkernel`) must be
result-identical to the scan matchers on every stream — same pair set,
same ``use_without_def`` order, same warning count — and
``match_events`` must degrade to scan gracefully whenever the kernel
cannot run (no numpy).
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_cluster
from repro.instrument import DynamicAnalyzer
from repro.instrument import matchkernel
from repro.instrument.matching import match_events
from repro.instrument.probes import (
    ProbeRuntime,
    UseWithoutDefWarning,
    WriterKind,
)
from repro.obs import Telemetry
from repro.obs.store import ColumnarProbeStore, ProbeStoreSpec
from repro.testing import TestSuite
from repro.testing.generate import (
    build_cluster,
    random_suite,
    rate_strategy,
    values_strategy,
)

needs_numpy = pytest.mark.skipif(
    not matchkernel.HAVE_NUMPY, reason="numpy not installed"
)

MODEL = WriterKind.MODEL
TESTBENCH = WriterKind.TESTBENCH


def USE(var, model, line):
    return (0, var, model, line)


def DEF(var, model, line):
    return (1, var, model, line)


def PW(signal, token, var, model, line, kind=MODEL):
    return (2, signal, token, var, model, line, kind)


def PR(signal, token, port, reader, anchor, line, undriven=False):
    return (3, signal, token, port, reader, anchor, line, undriven)


def _probe(events, store=None):
    probe = ProbeRuntime("top", store=store)
    for event in events:
        probe._buf.append(event)
    return probe


def _match(events, starts=None, warn=False, chunk=None, telemetry=None):
    """Match ``events``: the list scan, or on a columnar store of
    ``chunk``-row chunks (the vector kernel when numpy is present)."""
    store = None
    if chunk is not None:
        store = ColumnarProbeStore(chunk_size=chunk)
    probe = _probe(events, store=store)
    try:
        return match_events(
            probe, "tc", starts or {}, warn=warn, telemetry=telemetry
        )
    finally:
        if store is not None:
            store.close()


def _both(events, starts=None, chunk=4096):
    """Scan and vector results for the same stream, asserted equal."""
    scan = _match(events, starts=starts)
    vector = _match(events, starts=starts, chunk=chunk)
    assert vector.pairs == scan.pairs
    assert vector.use_without_def == scan.use_without_def
    return vector


class TestDispatch:
    def test_no_numpy_falls_back_to_scan(self, monkeypatch):
        events = [DEF("x", "m", 10), USE("x", "m", 11)]
        expected = _match(events)
        tel = Telemetry()
        with monkeypatch.context() as mp:
            mp.setattr(matchkernel, "HAVE_NUMPY", False)
            result = _match(events, chunk=4, telemetry=tel)
        assert result.pairs == expected.pairs
        runs = {
            record["labels"].get("path"): record["value"]
            for record in tel.to_run()["metrics"]
            if record["name"] == "instrument.match_runs"
        }
        assert runs == {"scan": 1}

    @needs_numpy
    def test_auto_vectorizes_streaming_stores_only(self):
        tel = Telemetry()
        events = [DEF("x", "m", 10), USE("x", "m", 11)]
        _match(events, chunk=4, telemetry=tel)
        _match(events, telemetry=tel)
        runs = {
            record["labels"].get("path"): record["value"]
            for record in tel.to_run()["metrics"]
            if record["name"] == "instrument.match_runs"
        }
        assert runs == {"vector": 1, "scan": 1}

    @needs_numpy
    def test_vector_telemetry_counts_rows(self):
        tel = Telemetry()
        events = [DEF("x", "m", 10), USE("x", "m", 11), USE("x", "m", 12)]
        _match(events, chunk=4, telemetry=tel)
        scanned = {
            record["labels"].get("path"): record["value"]
            for record in tel.to_run()["metrics"]
            if record["name"] == "instrument.match_events_scanned"
        }
        assert scanned == {"vector": len(events)}


@needs_numpy
class TestKernelSemantics:
    """Hand-built streams covering every scan-matcher edge case.

    Each test asserts vector == scan first (via ``_both``), then pins
    the expected content so a regression in *both* paths cannot hide.
    """

    def test_var_last_def_wins(self):
        result = _both([
            DEF("x", "m", 10),
            USE("x", "m", 11),
            DEF("x", "m", 12),
            USE("x", "m", 13),
        ])
        assert result.pairs == {
            ("x", "m", 10, "m", 11),
            ("x", "m", 12, "m", 13),
        }

    def test_var_cross_model_isolation(self):
        assert _both([DEF("x", "a", 10), USE("x", "b", 11)]).pairs == set()

    def test_use_before_any_def_skipped(self):
        assert _both([USE("x", "m", 11), DEF("x", "m", 10)]).pairs == set()

    def test_group_cummax_does_not_leak_across_groups(self):
        # Sorted by (model, var) key, group ('a', 'x') holds a def whose
        # cummax position must not satisfy group ('b', 'x')'s use.
        result = _both([
            DEF("x", "a", 10),
            USE("x", "b", 20),
            DEF("y", "b", 30),
            USE("y", "b", 31),
        ])
        assert result.pairs == {("y", "b", 30, "b", 31)}

    def test_floor_join_sample_and_hold(self):
        result = _both([PW("s", 0, "op", "w", 30), PR("s", 3, "ip", "r", "r", 40)])
        assert result.pairs == {("op", "w", 30, "r", 40)}

    def test_floor_requires_same_signal(self):
        # The searchsorted floor for t's read lands on s's last write in
        # the combined key space; the same-signal check must reject it.
        result = _both([
            PW("s", 5, "op", "w", 30),
            PR("t", 2, "ip", "r", "r", 40),
        ])
        assert result.pairs == set()

    def test_no_write_at_or_below_token_skipped(self):
        result = _both([PW("s", 5, "op", "w", 30), PR("s", 2, "ip", "r", "r", 40)])
        assert result.pairs == set()

    def test_negative_token_is_initial_value(self):
        result = _both([PW("s", 0, "op", "w", 30), PR("s", -1, "ip", "r", "r", 40)])
        assert result.pairs == set()

    def test_last_write_by_sequence_wins(self):
        result = _both([
            PW("s", 0, "op", "w", 30),
            PW("s", 0, "op", "w", 33),
            PR("s", 0, "ip", "r", "r", 40),
        ])
        assert result.pairs == {("op", "w", 33, "r", 40)}

    def test_reads_resolve_after_all_writes(self):
        # The scan matcher buffers reads until the write map is
        # complete; a write recorded *after* the read still pairs.
        result = _both([
            PR("s", 0, "ip", "r", "r", 40),
            PW("s", 0, "op", "w", 30),
        ])
        assert result.pairs == {("op", "w", 30, "r", 40)}

    def test_testbench_write_pairs_with_placeholder(self):
        result = _both(
            [PW("s", 0, "op", "tb", 0, TESTBENCH), PR("s", 0, "ip", "r", "r", 40)],
            starts={"r": 7},
        )
        assert result.pairs == {("ip", "r", 7, "r", 40)}

    def test_testbench_without_start_line_skipped(self):
        result = _both([
            PW("s", 0, "op", "tb", 0, TESTBENCH),
            PR("s", 0, "ip", "r", "r", 40),
        ])
        assert result.pairs == set()

    def test_undriven_reported_once_in_stream_order(self):
        result = _both([
            PR("s", 0, "ipb", "rb", "rb", 40, undriven=True),
            PR("t", 0, "ipa", "ra", "ra", 41, undriven=True),
            PR("s", 1, "ipb", "rb", "rb", 40, undriven=True),
        ])
        assert result.use_without_def == ["rb.ipb", "ra.ipa"]
        assert result.pairs == set()

    def test_undriven_warning_count_matches_scan(self):
        events = [
            PR("s", 0, "ip", "r", "r", 40, undriven=True),
            PR("s", 1, "ip", "r", "r", 40, undriven=True),
        ]
        for chunk in (None, 4096):  # scan, vector
            with pytest.warns(UseWithoutDefWarning, match="no driver") as rec:
                _match(events, warn=True, chunk=chunk)
            assert len(rec) == 1

    def test_pair_dedup(self):
        # The same (def, use) site firing every period yields one pair.
        result = _both(
            [DEF("x", "m", 10), USE("x", "m", 11)] * 5
            + [PW("s", t, "op", "w", 30) for t in range(5)]
            + [PR("s", t, "ip", "r", "r", 40) for t in range(5)]
        )
        assert result.pairs == {
            ("x", "m", 10, "m", 11),
            ("op", "w", 30, "r", 40),
        }

    def test_spilled_store_chunks_concatenate(self):
        events = (
            [DEF("x", "m", 10), USE("x", "m", 11)] * 9
            + [PW("s", t, "op", "w", 30) for t in range(9)]
            + [PR("s", t, "ip", "r", "r", 40) for t in range(9)]
        )
        result = _both(events, chunk=5)  # forces multiple spilled chunks
        assert result.pairs == {
            ("x", "m", 10, "m", 11),
            ("op", "w", 30, "r", 40),
        }

    def test_empty_stream(self):
        result = _both([])
        assert result.pairs == set() and result.use_without_def == []


@settings(max_examples=6, deadline=None)
@given(
    values=values_strategy(max_size=6),
    up=rate_strategy(),
    down=rate_strategy(),
    use_numpy=st.booleans(),
)
def test_vector_equals_scan_property(values, up, down, use_numpy):
    """Property (issue satellite): on random multirate clusters the
    columnar store's matcher — the vector kernel, or the streaming scan
    with numpy masked out — yields the in-memory list scan's pairs,
    diagnostics order and warning count."""
    from _pytest.monkeypatch import MonkeyPatch

    factory = lambda: build_cluster(values, up, down)
    static = analyze_cluster(factory())
    suite = TestSuite("random", random_suite(5))

    def run(spec):
        analyzer = DynamicAnalyzer(factory, static, warn=True, probe_store=spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = analyzer.run_suite(suite)
        warned = sum(
            1 for w in caught if issubclass(w.category, UseWithoutDefWarning)
        )
        return result, warned

    with MonkeyPatch.context() as mp:
        if not use_numpy:
            mp.setattr(matchkernel, "HAVE_NUMPY", False)
        scan, scan_warned = run(None)
        vector, vector_warned = run(ProbeStoreSpec(kind="columnar", chunk_size=32))
    assert vector_warned == scan_warned
    assert list(vector.per_testcase) == list(scan.per_testcase)
    for name, match in scan.per_testcase.items():
        assert vector.per_testcase[name].pairs == match.pairs
        assert (
            vector.per_testcase[name].use_without_def
            == match.use_without_def
        )
