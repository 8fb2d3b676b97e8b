"""Property: instrumentation must never change observable behaviour.

The dynamic analysis rewrites ``processing()`` with probe calls; for
any stimulus the instrumented cluster must produce exactly the sample
stream of the uninstrumented one.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument import ProbeRuntime, instrument_processing
from repro.tdf import Cluster, Simulator, TdfIn, TdfModule, TdfOut, ms
from repro.tdf.library import CollectorSink, StimulusSource


class NonTrivial(TdfModule):
    """Branches, members, loops, augmented assignment, multiple reads."""

    def __init__(self, name="dut"):
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_acc = 0.0
        self.m_mode = 0

    def processing(self):
        sample = self.ip.read()
        magnitude = abs(sample)
        if magnitude > 1.0:
            self.m_mode = 1
        elif magnitude < 0.1:
            self.m_mode = 0
        total = 0.0
        for weight in (0.5, 0.3, 0.2):
            total += weight * sample
        if self.m_mode == 1:
            self.m_acc = self.m_acc + total
        else:
            self.m_acc = self.m_acc * 0.5
        self.op.write(self.m_acc)


def _build(values):
    samples = list(values)

    class Top(Cluster):
        def architecture(self):
            self.src = self.add(StimulusSource(
                "src",
                lambda t: samples[min(int(round(t * 1000)), len(samples) - 1)],
                ms(1),
            ))
            self.dut = self.add(NonTrivial())
            self.sink = self.add(CollectorSink("sink"))
            self.connect(self.src.op, self.dut.ip)
            self.connect(self.dut.op, self.sink.ip)

    return Top("top")


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.floats(-10.0, 10.0, allow_nan=False),
    min_size=1,
    max_size=12,
))
def test_instrumented_matches_uninstrumented(values):
    plain = _build(values)
    Simulator(plain).run(ms(len(values)))

    instrumented = _build(values)
    probe = ProbeRuntime("top")
    instrument_processing(instrumented.dut, probe)
    Simulator(instrumented).run(ms(len(values)))

    assert instrumented.sink.values() == plain.sink.values()
    # And the probe actually paired the execution.
    assert probe.last_def and probe.use_hits
    writes = probe.signal_writes[instrumented.dut.op.signal.name]
    assert (writes.run_starts, writes.run_ends) == ([0], [len(values) - 1])


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=2, max_size=8))
def test_exercised_pairs_deterministic(values):
    """Identical stimuli -> identical exercised pairs."""
    from repro.analysis import analyze_cluster
    from repro.instrument import DynamicAnalyzer
    from repro.testing import TestCase

    static = analyze_cluster(_build(values))
    analyzer = DynamicAnalyzer(lambda: _build(values), static)
    tc = TestCase("t", ms(len(values)), lambda c: None)
    first = analyzer.run_testcase(tc)
    second = analyzer.run_testcase(tc)
    assert first.pairs == second.pairs
