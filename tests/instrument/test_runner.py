"""Integration-level tests for the dynamic-analysis runner."""

import pytest

from repro.analysis import analyze_cluster
from repro.instrument import DynamicAnalyzer
from repro.tdf import Cluster, ms
from repro.tdf.library import (
    CollectorSink,
    DelayTdf,
    GainTdf,
    StimulusSource,
)
from repro.tdf.module import TdfModule
from repro.tdf.ports import TdfIn, TdfOut
from repro.testing import TestCase, TestSuite


class Producer(TdfModule):
    def __init__(self, name="prod"):
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()

    def processing(self):
        raw = self.ip.read()
        self.op.write(raw * 2)


class Consumer(TdfModule):
    def __init__(self, name="cons"):
        super().__init__(name)
        self.ip = TdfIn()
        self.m_seen = 0.0

    def processing(self):
        self.m_seen = self.ip.read()


def _factory():
    class Top(Cluster):
        def architecture(self):
            self.src = self.add(StimulusSource("src", lambda t: 1.0, ms(1)))
            self.prod = self.add(Producer())
            self.cons = self.add(Consumer())
            self.connect(self.src.op, self.prod.ip)
            self.connect(self.prod.op, self.cons.ip)

    return Top("top")


def _delay_factory():
    class Top(Cluster):
        def architecture(self):
            self.src = self.add(StimulusSource("src", lambda t: 1.0, ms(1)))
            self.prod = self.add(Producer())
            self.delay = self.add(DelayTdf("dly", 1))
            self.cons = self.add(Consumer())
            self.connect(self.src.op, self.prod.ip)
            self.connect(self.prod.op, self.delay.ip)
            self.connect(self.delay.op, self.cons.ip)

    return Top("top")


def _tc(name="tc", duration=ms(3)):
    return TestCase(name, duration, lambda cluster: None)


class TestRunTestcase:
    def test_intra_and_cross_pairs_exercised(self):
        static = analyze_cluster(_factory())
        analyzer = DynamicAnalyzer(_factory, static)
        match = analyzer.run_testcase(_tc())
        static_keys = {a.key for a in static.associations}
        # Everything this trivial design declares must be exercised.
        assert static_keys <= match.pairs

    def test_placeholder_pair_for_testbench_input(self):
        static = analyze_cluster(_factory())
        placeholder = next(
            a for a in static.associations if a.var == "ip" and a.def_model == "prod"
        )
        match = DynamicAnalyzer(_factory, static).run_testcase(_tc())
        assert placeholder.key in match.pairs

    def test_redefined_branch_pair_exercised(self):
        factory = _delay_factory
        static = analyze_cluster(factory())
        pweak = [a for a in static.associations if a.klass.value == "PWeak"]
        assert len(pweak) == 1
        match = DynamicAnalyzer(factory, static).run_testcase(_tc())
        assert pweak[0].key in match.pairs

    def test_member_state_isolated_between_testcases(self):
        static = analyze_cluster(_factory())
        analyzer = DynamicAnalyzer(_factory, static)
        analyzer.run_testcase(_tc("a"))
        match = analyzer.run_testcase(_tc("b"))
        # Fresh cluster per testcase: pairs identical for identical stimuli.
        match2 = analyzer.run_testcase(_tc("c"))
        assert match.pairs == match2.pairs


class TestRunSuite:
    def test_per_testcase_results_keyed_by_name(self):
        static = analyze_cluster(_factory())
        suite = TestSuite("s", [_tc("t1"), _tc("t2")])
        result = DynamicAnalyzer(_factory, static).run_suite(suite)
        assert sorted(result.per_testcase) == ["t1", "t2"]

    def test_exercised_keys_union(self):
        static = analyze_cluster(_factory())
        suite = TestSuite("s", [_tc("t1"), _tc("t2")])
        result = DynamicAnalyzer(_factory, static).run_suite(suite)
        union = set()
        for match in result.per_testcase.values():
            union |= match.pairs
        assert result.exercised_keys() == union


class TestUseWithoutDef:
    def test_undriven_port_reported(self):
        class Reader(TdfModule):
            def __init__(self, name="reader"):
                super().__init__(name)
                self.ip_float = TdfIn()
                self.op = TdfOut()

            def processing(self):
                self.op.write(self.ip_float.read())

        def factory():
            class Top(Cluster):
                def architecture(self):
                    self.r = self.add(Reader())
                    self.r.set_timestep(ms(1))
                    self.r.ip_float.bind(self.signal("floating"))
                    self.sink = self.add(CollectorSink("sink"))
                    self.connect(self.r.op, self.sink.ip)

            return Top("top")

        static = analyze_cluster(factory())
        assert static.undriven_input_ports == ["reader.ip_float"]
        result = DynamicAnalyzer(factory, static).run_suite(
            TestSuite("s", [_tc()])
        )
        assert result.use_without_def() == ["reader.ip_float"]


class TestPairerStateBound:
    """The pairer holds O(sites + write runs), not O(events)."""

    @staticmethod
    def _state(monkeypatch, factory, testcase, scale):
        """(write runs, write exceptions, use hits, read hits) after
        running ``testcase`` for ``scale`` times its duration."""
        import repro.instrument.runner as runner

        real = runner.ProbeRuntime
        probes = []

        def capturing(cluster_name):
            probes.append(real(cluster_name))
            return probes[-1]

        with monkeypatch.context() as patch:
            patch.setattr(runner, "ProbeRuntime", capturing)
            scaled = TestCase(testcase.name, testcase.duration * scale, testcase.setup)
            DynamicAnalyzer(factory, analyze_cluster(factory())).run_testcase(scaled)
        (probe,) = probes
        writes = probe.signal_writes.values()
        return (
            sum(len(w.run_starts) for w in writes),
            sum(len(w.exceptions) for w in writes),
            len(probe.use_hits),
            len(probe.read_hits),
        )

    def test_state_independent_of_duration(self, monkeypatch):
        """buck_boost's writers are periodic single-site writers, so the
        state after 4x the simulated time equals the state after 1x.
        Sensor is left out: one of its writers alternates source sites,
        so its write runs grow with the duration."""
        from repro.systems.buck_boost import BuckBoostTop
        from repro.systems.campaigns import buck_boost_base_suite

        for testcase in buck_boost_base_suite()[:2]:
            once = self._state(monkeypatch, BuckBoostTop, testcase, 1)
            assert all(once[i] > 0 for i in (0, 2, 3))
            assert self._state(monkeypatch, BuckBoostTop, testcase, 4) == once
