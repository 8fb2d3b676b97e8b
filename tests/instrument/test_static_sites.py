"""Static def sites of uninstrumented drivers (paper §V).

A testbench source or a redefining library element is not
instrumented: every token it drives is defined at one static site, the
reader's placeholder def or the element's netlist bind site.  The
runner registers that site per signal before the run; the probe pairs
each read of a token at or past the driver's output delay with it.
"""

import pytest

from repro.analysis import analyze_cluster
from repro.instrument import DynamicAnalyzer, ProbeRuntime
from repro.systems.registry import SYSTEMS
from repro.tdf import Cluster, Simulator, ms
from repro.tdf.engine import compile_program
from repro.tdf.library import DelayTdf, StimulusSource
from repro.tdf.module import TdfModule
from repro.tdf.ports import TdfIn, TdfOut
from repro.testing import TestCase

ENGINES = ("interp", "block")


class Producer(TdfModule):
    def __init__(self, name="prod"):
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()

    def processing(self):
        self.op.write(self.ip.read() + 1.0)


class Consumer(TdfModule):
    def __init__(self, name="cons"):
        super().__init__(name)
        self.ip = TdfIn()
        self.m_seen = 0.0

    def processing(self):
        self.m_seen = self.ip.read()


def _delayed_factory(feed):
    """``src -> [prod ->] dly(delay=2) -> cons``: the delay element is
    fed by the testbench source itself or by an instrumented model."""

    def factory():
        class Top(Cluster):
            def architecture(self):
                self.src = self.add(StimulusSource("src", lambda t: t, ms(1)))
                self.dly = self.add(DelayTdf("dly", 2))
                self.cons = self.add(Consumer())
                if feed == "model":
                    self.prod = self.add(Producer())
                    self.connect(self.src.op, self.prod.ip)
                    self.connect(self.prod.op, self.dly.ip)
                else:
                    self.connect(self.src.op, self.dly.ip)
                self.connect(self.dly.op, self.cons.ip)

        return Top("top")

    return factory


def _cons_pairs(factory, static, engine, periods):
    testcase = TestCase("tc", ms(periods), lambda cluster: None)
    match = DynamicAnalyzer(factory, static, engine=engine).run_testcase(testcase)
    return {pair for pair in match.pairs if pair[3] == "cons"}, match.pairs


class TestDelayedStaticSite:
    @pytest.mark.parametrize("feed", ["testbench", "model"])
    def test_priming_tokens_pair_nothing_then_the_static_site(self, feed):
        factory = _delayed_factory(feed)
        static = analyze_cluster(factory())
        (expected,) = [a.key for a in static.associations if a.use_model == "cons"]
        if feed == "model":
            # Netlist anchor: the delay element's output bind statement.
            line = factory().dly.op.bind_site.lineno
            assert expected[:3] == ("op", "top", line)
        else:
            # Testbench chain: the reader's placeholder definition.
            assert expected[:3] == ("ip", "cons", static.model_start_lines["cons"])
        full = {}
        for engine in ENGINES:
            # Two periods read only the two priming tokens.
            assert _cons_pairs(factory, static, engine, 2)[0] == set(), engine
            cons, full[engine] = _cons_pairs(factory, static, engine, 3)
            assert cons == {expected}, engine
        assert full["interp"] == full["block"]


class TestInstrumentedCompileStats:
    """The block engine's partition of the four bundled systems, set up
    the way the dynamic analysis runs them: testbench and library
    writers stay block-capable, instrumented models fall back."""

    EXPECTED = {
        "sensor": 0.5455,
        "window_lifter": 0.4375,
        "buck_boost": 0.5,
        "riscv_platform": 0.5556,
    }

    @pytest.mark.parametrize("system", sorted(EXPECTED))
    def test_block_ratio_and_fallback_reasons(self, system):
        entry = SYSTEMS[system]
        factory = entry.factory()
        cluster = factory()
        probe = ProbeRuntime(cluster.name)
        analyzer = DynamicAnalyzer(factory, None, engine="block")
        analyzer._instrument(cluster, probe)
        analyzer._register_static_sites(cluster, probe)
        entry.base_suite(system).testcases[0].apply(cluster)
        sim = Simulator(cluster, engine="block")
        sim.initialize()
        stats = compile_program(sim, sim.schedule).stats
        assert round(stats["block_ratio"], 4) == self.EXPECTED[system]
        reasons = {r for rs in stats["fallbacks"].values() for r in rs}
        assert reasons == {"instrumented", "no_block"}
