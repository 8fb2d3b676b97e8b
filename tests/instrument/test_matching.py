"""Unit tests for dynamic event matching (paper §V rules).

Every test runs its hand-built tuple stream through each match path
``match_events`` can take — the in-memory list scan, the columnar
store's streaming scan (numpy masked out) and, when numpy is
installed, the columnar vector kernel — and pins the same expected
result on all of them.
"""

import warnings

import pytest

from repro.instrument import matchkernel
from repro.instrument.matching import match_events
from repro.instrument.probes import (
    TAG_DEF,
    TAG_PR,
    TAG_PW,
    TAG_USE,
    ProbeRuntime,
    UseWithoutDefWarning,
    WriterKind,
)
from repro.obs.store import ColumnarProbeStore

#: The match paths: list scan, streaming scan, vector kernel.
PATHS = ("list", "streaming") + (("vector",) if matchkernel.HAVE_NUMPY else ())


def _use(var, model, line):
    return (TAG_USE, var, model, line)


def _def(var, model, line):
    return (TAG_DEF, var, model, line)


def _write(token, line=30, kind=WriterKind.MODEL, signal="s", var="op", model="w"):
    return (TAG_PW, signal, token, var, model, line, kind)


def _read(token, line=40, signal="s", undriven=False):
    return (TAG_PR, signal, token, "ip", "r", "r", line, undriven)


def _match(path, events, starts=None, warn=False):
    """Match ``events`` through one path."""
    if path == "list":
        probe = ProbeRuntime("top")
        probe._buf.extend(events)
        return match_events(probe, "tc", starts or {}, warn=warn)
    # chunk_size=2 spills every other event to disk.
    store = ColumnarProbeStore(chunk_size=2)
    try:
        probe = ProbeRuntime("top", store=store)
        for event in events:
            store.append(event)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matchkernel, "HAVE_NUMPY", path == "vector")
            return match_events(probe, "tc", starts or {}, warn=warn)
    finally:
        store.close()


def _pairs(events, starts=None):
    """``{path: pair set}`` for ``events`` on every path."""
    return {path: _match(path, events, starts).pairs for path in PATHS}


def _each(expected):
    return {path: expected for path in PATHS}


class TestVarMatching:
    def test_use_pairs_with_most_recent_def(self):
        events = [
            _def("x", "m", 10),
            _use("x", "m", 11),
            _def("x", "m", 12),
            _use("x", "m", 13),
        ]
        assert _pairs(events) == _each({
            ("x", "m", 10, "m", 11),
            ("x", "m", 12, "m", 13),
        })

    def test_use_without_prior_def_skipped(self):
        assert _pairs([_use("x", "m", 11)]) == _each(set())

    def test_cross_model_isolation(self):
        events = [_def("x", "a", 10), _use("x", "b", 11)]
        assert _pairs(events) == _each(set())

    def test_member_pairs_across_activations(self):
        # def in activation 1, use in activation 2 (a later event).
        events = [
            _def("m_s", "m", 20),
            _use("y", "m", 12),
            _use("m_s", "m", 15),
        ]
        assert _pairs(events) == _each({("m_s", "m", 20, "m", 15)})


class TestPortMatching:
    def test_exact_token_join(self):
        assert _pairs([_write(0), _read(0)]) == _each({("op", "w", 30, "r", 40)})

    def test_floor_join_for_sample_and_hold(self):
        # Token 3 repeats the (unwritten) held sample of token 0.
        assert _pairs([_write(0), _read(3)]) == _each({("op", "w", 30, "r", 40)})

    def test_no_write_before_token_skipped(self):
        assert _pairs([_write(5), _read(2)]) == _each(set())

    def test_negative_index_is_initial_value(self):
        # Priming / reader-side delay tokens carry no definition.
        assert _pairs([_write(0), _read(-1)]) == _each(set())

    def test_last_write_per_token_wins(self):
        events = [_write(0, line=30), _write(0, line=33), _read(0)]
        assert _pairs(events) == _each({("op", "w", 33, "r", 40)})

    def test_testbench_write_pairs_with_placeholder(self):
        events = [_write(0, kind=WriterKind.TESTBENCH), _read(0)]
        assert _pairs(events, starts={"r": 7}) == _each({("ip", "r", 7, "r", 40)})

    def test_testbench_without_start_line_skipped(self):
        events = [_write(0, kind=WriterKind.TESTBENCH), _read(0)]
        assert _pairs(events) == _each(set())

    def test_redef_write_uses_netlist_anchor(self):
        events = [
            _write(0, line=99, kind=WriterKind.REDEF, var="op_src", model="top"),
            _read(0),
        ]
        assert _pairs(events) == _each({("op_src", "top", 99, "r", 40)})


class TestUseWithoutDef:
    def test_undriven_read_reported_once(self):
        events = [_read(i, undriven=True) for i in range(3)]
        for path in PATHS:
            result = _match(path, events)
            assert result.use_without_def == ["r.ip"], path
            assert result.pairs == set(), path

    def test_warning_raised_when_enabled(self):
        events = [_read(i, undriven=True) for i in range(3)]
        for path in PATHS:
            with pytest.warns(UseWithoutDefWarning, match="undefined") as rec:
                _match(path, events, warn=True)
            assert len(rec) == 1, path

    def test_no_warning_when_disabled(self):
        for path in PATHS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _match(path, [_read(0, undriven=True)], warn=False)


class TestExercisedRecords:
    def test_exercised_pairs_carry_testcase(self):
        events = [_def("x", "m", 10), _use("x", "m", 11)]
        for path in PATHS:
            records = _match(path, events).exercised()
            assert len(records) == 1, path
            assert records[0].testcase == "tc"
            assert records[0].key == ("x", "m", 10, "m", 11)
