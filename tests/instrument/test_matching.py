"""Unit tests for dynamic def-use pairing (paper §V rules).

Every test replays its hand-built tuple stream through the online
pairer's port accessors (:func:`oracle.replay`) and through the
post-hoc reference join (:func:`oracle.oracle_match`), and pins the
same expected result on both.  A Hypothesis property checks that the
two agree on random causal streams.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import DEF, PR, PW, SITE, USE, oracle_match, pairer_match
from repro.instrument.probes import TESTBENCH_SITE, UseWithoutDefWarning

#: The pairing paths: the online pairer and the reference join.
PATHS = ("pairer", "oracle")


def _use(var, model, line):
    return (USE, var, model, line)


def _def(var, model, line):
    return (DEF, var, model, line)


def _write(token, line=30, signal="s", var="op", model="w"):
    return (PW, signal, token, var, model, line)


def _site(site=TESTBENCH_SITE, delay=0, signal="s"):
    return (SITE, signal, delay, site)


def _read(token, line=40, signal="s", undriven=False, port="ip", reader="r"):
    return (PR, signal, token, port, reader, reader, line, undriven)


def _match(path, events, starts=None, warn=False):
    """Pair ``events`` through one path."""
    if path == "pairer":
        return pairer_match(events, starts or {}, warn=warn)
    assert not warn  # the reference join only lists findings
    return oracle_match(events, starts or {})


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
        events = [_site(), _read(0)]
        assert _pairs(events, starts={"r": 7}) == _each({("ip", "r", 7, "r", 40)})

    def test_testbench_without_start_line_skipped(self):
        events = [_site(), _read(0)]
        assert _pairs(events) == _each(set())

    def test_redef_write_uses_netlist_anchor(self):
        events = [_site(("op_src", "top", 99)), _read(0)]
        assert _pairs(events) == _each({("op_src", "top", 99, "r", 40)})

    def test_static_site_skips_output_delay_priming(self):
        # Tokens below the driver's output delay are initial values.
        priming = [_site(("op_src", "top", 99), delay=2), _read(0), _read(1)]
        assert _pairs(priming) == _each(set())
        assert _pairs(priming + [_read(2)]) == _each(
            {("op_src", "top", 99, "r", 40)}
        )


class TestUseWithoutDef:
    def test_undriven_read_reported_once(self):
        events = [_read(i, undriven=True) for i in range(3)]
        for path in PATHS:
            result = _match(path, events)
            assert result.use_without_def == ["r.ip"], path
            assert result.pairs == set(), path

    def test_warning_raised_when_enabled(self):
        events = [_read(i, undriven=True) for i in range(3)]
        with pytest.warns(UseWithoutDefWarning, match="undefined") as rec:
            _match("pairer", events, warn=True)
        assert len(rec) == 1

    def test_no_warning_when_disabled(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _match("pairer", [_read(0, undriven=True)], warn=False)


class TestExercisedRecords:
    def test_exercised_pairs_carry_testcase(self):
        events = [_def("x", "m", 10), _use("x", "m", 11)]
        for path in PATHS:
            records = _match(path, events).exercised()
            assert len(records) == 1, path
            assert records[0].testcase == "tc"
            assert records[0].key == ("x", "m", 10, "m", 11)


# -- pairer == reference join on random causal streams ----------------------

_SIGNALS = ("s0", "s1")


@st.composite
def causal_streams(draw):
    """Random §V streams meeting the pairer's causality condition.

    Each signal has one driver: instrumented-model writes, or one
    static site (testbench or netlist, with an output delay) declared
    before the run.  Model writes on a signal only target tokens above
    the greatest token already read on it, so every write of token
    ``j`` precedes any read of a token ``>= j``.  Re-writes, gaps,
    out-of-order tokens, writer site changes, priming and negative
    reads and an undriven signal all occur.
    """
    max_read = {sig: -1 for sig in _SIGNALS}
    events = []
    written = []
    for sig in _SIGNALS:
        driver = draw(st.sampled_from(("model", "testbench", "netlist")))
        if driver == "model":
            written.append(sig)
            continue
        site = TESTBENCH_SITE
        if driver == "netlist":
            site = (draw(st.sampled_from(("x", "y"))), "top", draw(st.integers(1, 4)))
        events.append(_site(site, delay=draw(st.integers(0, 2)), signal=sig))
    for _ in range(draw(st.integers(0, 40))):
        op = draw(st.sampled_from(("use", "def", "write", "read", "undriven")))
        var = draw(st.sampled_from(("x", "y")))
        model = draw(st.sampled_from(("a", "b")))
        line = draw(st.integers(1, 4))
        if op == "use":
            events.append(_use(var, model, line))
        elif op == "def":
            events.append(_def(var, model, line))
        elif op == "write":
            if not written:
                continue
            sig = draw(st.sampled_from(written))
            token = max_read[sig] + 1 + draw(st.integers(0, 4))
            events.append(_write(token, line=line, signal=sig, var=var, model=model))
        elif op == "read":
            sig = draw(st.sampled_from(_SIGNALS))
            token = draw(st.integers(-2, 12))
            max_read[sig] = max(max_read[sig], token)
            events.append(_read(token, line=line, signal=sig, reader=model))
        else:
            events.append(
                _read(0, signal="u", undriven=True, port=var, reader=model)
            )
    return events


@settings(max_examples=300, deadline=None)
@given(causal_streams(), st.booleans())
def test_pairer_matches_reference_join(events, with_starts):
    starts = {"a": 1, "b": 2} if with_starts else {"a": 1}
    got = _match("pairer", events, starts)
    want = _match("oracle", events, starts)
    assert got.pairs == want.pairs
    assert got.use_without_def == want.use_without_def
