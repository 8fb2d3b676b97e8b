"""Block engine ≡ interpreter: equivalence properties and unit tests.

The compiled block engine (:mod:`repro.tdf.engine`) must be an exact
drop-in for the per-firing interpreter: identical sample streams,
identical traced signals, identical probe pairer state, identical
exercised def-use pairs — for every cluster,
including multirate ones where the compiler partitions the schedule into
hoisted block runs, specialised SISO ops and interpreted fallbacks.
"""

import pytest
from hypothesis import given, settings

from repro.instrument import ProbeRuntime, instrument_processing
from repro.systems.registry import SYSTEMS
from repro.tdf import Cluster, Simulator, TdfIn, TdfModule, TdfOut, Tracer, ms
from repro.tdf.engine import BlockEngine, compile_program, resolve_engine
from repro.tdf.library import CollectorSink, RampSource

# The random multirate cluster shapes live in repro.testing.generate so
# the mutation fuzzer can reuse them; these tests draw their Hypothesis
# parameters from the promoted strategies.
from repro.testing.generate import (
    BASE_MS,
    Expander,
    build_cluster as _build,
    rate_strategy,
    values_strategy,
)


def _pairer_state(probe):
    """Everything the online pairer holds after a run."""
    writes = {
        sig: (w.run_starts, w.run_ends, w.run_sites, w.exceptions)
        for sig, w in probe.signal_writes.items()
    }
    return (probe.last_def, probe.use_hits, probe.read_hits,
            list(probe.undriven.items()), writes)


def _execute(engine, values, up_rate, down_rate):
    """One instrumented simulation; returns (sink trace, probe)."""
    top = _build(values, up_rate, down_rate)
    probe = ProbeRuntime("top")
    instrument_processing(top.dut, probe)
    sim = Simulator(top, engine=engine)
    sim.run(ms(BASE_MS * len(values)))
    sim.finish()
    return top.sink.values(), probe


class TestEquivalenceProperties:
    @settings(max_examples=25, deadline=None)
    @given(values_strategy(), rate_strategy(), rate_strategy())
    def test_traces_and_probe_streams_identical(self, values, up_rate, down_rate):
        """Sample stream and the whole pairer state match."""
        trace_i, probe_i = _execute("interp", values, up_rate, down_rate)
        trace_b, probe_b = _execute("block", values, up_rate, down_rate)
        assert trace_b == trace_i
        assert _pairer_state(probe_b) == _pairer_state(probe_i)

    @settings(max_examples=10, deadline=None)
    @given(values_strategy(max_size=8), rate_strategy(), rate_strategy())
    def test_exercised_pairs_identical(self, values, up_rate, down_rate):
        """The full dynamic analysis yields identical coverage per engine."""
        from repro.analysis import analyze_cluster
        from repro.instrument import DynamicAnalyzer
        from repro.testing import TestCase

        def factory():
            return _build(values, up_rate, down_rate)

        static = analyze_cluster(factory())
        tc = TestCase("t", ms(BASE_MS * len(values)), lambda c: None)
        matches = {}
        for engine in ("interp", "block"):
            analyzer = DynamicAnalyzer(factory, static, engine=engine)
            matches[engine] = analyzer.run_testcase(tc)
        assert matches["block"].pairs == matches["interp"].pairs
        assert matches["block"].use_without_def == matches["interp"].use_without_def

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_bundled_systems_pairs_identical(self, system):
        """Every bundled system: per-testcase pairs and findings match."""
        from repro.analysis import analyze_cluster
        from repro.instrument import DynamicAnalyzer

        factory = SYSTEMS[system].factory()
        suite = SYSTEMS[system].base_suite(system)
        static = analyze_cluster(factory())
        results = {
            engine: DynamicAnalyzer(factory, static, engine=engine).run_suite(suite)
            for engine in ("interp", "block")
        }
        block, interp = results["block"].per_testcase, results["interp"].per_testcase
        assert list(block) == list(interp)
        for name, match in interp.items():
            assert block[name].pairs == match.pairs, name
            assert block[name].use_without_def == match.use_without_def, name

    def test_traced_signals_identical(self):
        """A traced writer keeps its block path (the tracer copies the
        committed tokens) and the rows stay exact."""
        rows = {}
        for engine in ("interp", "block"):
            top = _build([0.3, 1.2, -0.7, 2.0], 2, 2)
            tracer = Tracer()
            tracer.trace(top.dut.op.signal, "dut_out")
            Simulator(top, engine=engine).run(ms(BASE_MS * 4))
            rows[engine] = tracer.samples("dut_out")
        assert rows["block"] == rows["interp"]


class TestDynamicTdfUnderBlock:
    def _top(self):
        class Switcher(Expander):
            def change_attributes(self):
                if self.activation_count == 2 and self.op.rate == 3:
                    self.request_rate("op", 2)

        class Counting(TdfModule):
            def __init__(self, name="src"):
                super().__init__(name)
                self.op = TdfOut()
                self.m_n = 0

            def set_attributes(self):
                self.set_timestep(ms(3))

            def processing(self):
                self.op.write(float(self.m_n))
                self.m_n += 1

        class Top(Cluster):
            def architecture(self):
                self.src = self.add(Counting())
                self.up = self.add(Switcher(3, "up"))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.up.ip)
                self.connect(self.up.op, self.sink.ip)

        return Top("top")

    def test_rate_change_matches_interp(self):
        """A mid-run schedule swap (window truncation + rollback on the
        block path) leaves exactly the interpreter's data behind."""
        results = {}
        for engine in ("interp", "block"):
            top = self._top()
            sim = Simulator(top, engine=engine)
            sim.run(ms(12))
            results[engine] = (sim.reelaborations, top.sink.values())
        assert results["block"] == results["interp"]
        assert results["block"][0] == 1


class TestChangerInOneWindowLoop:
    """A module overriding ``change_attributes`` stays in the per-period
    core next to a hoisted source and a deferred sink; its requests,
    filed mid-window, truncate the window like processing()-time ones."""

    def _top(self):
        class Scaler(TdfModule):
            # Windowable and block-capable: only the changer rule keeps
            # it out of the hoisted pre set.
            BLOCK_WINDOWABLE = True

            def __init__(self, name="chg"):
                super().__init__(name)
                self.ip = TdfIn()
                self.op = TdfOut()

            def set_attributes(self):
                self.set_timestep(ms(1))

            def processing(self):
                self.op.write(self.ip.read() * 2.0)

            def processing_block(self, block):
                block.write(self.op, [v * 2.0 for v in block.read(self.ip)])

            def change_attributes(self):
                if self.activation_count == 5:
                    self.request_timestep(ms(2))
                elif self.activation_count == 12:
                    self.request_timestep(ms(1))

        class Top(Cluster):
            def architecture(self):
                self.src = self.add(RampSource("src", 0.0, 1.0, 0.05))
                self.chg = self.add(Scaler())
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.chg.ip)
                self.connect(self.chg.op, self.sink.ip)

        return Top("top")

    def test_partition_keeps_the_changer_per_period(self):
        sim = Simulator(self._top(), engine="block")
        sim.initialize()
        program = compile_program(sim, sim.schedule)
        assert program.stats["pre_modules"] == ["src"]
        assert program.stats["post_modules"] == ["sink"]
        assert [c.__self__.name for c in program.changers] == ["chg"]

    def test_block_matches_interp(self):
        results = {}
        for engine in ("interp", "block"):
            top = self._top()
            tracer = Tracer()
            tracer.trace(top.chg.op.signal, "chg_out")
            sim = Simulator(top, engine=engine)
            sim.run(ms(70))
            results[engine] = (
                tracer.samples("chg_out"),
                top.sink.m_samples,
                sim.reelaborations,
                sim.now,
                sim.periods_run,
                {m.name: (m.time, m.activation_count) for m in top.modules},
            )
        assert results["block"] == results["interp"]
        assert results["block"][2] == 2


class TestCompilerClassification:
    def test_fallback_reasons_and_partition(self):
        top = _build([1.0, 2.0], 3, 2)
        probe = ProbeRuntime("top")
        instrument_processing(top.dut, probe)
        sim = Simulator(top, engine="block")
        sim.initialize()
        program = compile_program(sim, sim.schedule)
        stats = program.stats
        fallbacks = stats["fallbacks"]
        assert "multirate" in fallbacks["up"]
        assert "multirate" in fallbacks["down"]
        assert "instrumented" in fallbacks["dut"]
        # The source hoists, the sink defers, the gain specialises: the
        # schedule is genuinely partitioned, not all-or-nothing.
        assert "src" in stats["pre_modules"]
        assert "sink" in stats["post_modules"]
        assert 0.0 < stats["block_ratio"] < 1.0
        assert (
            stats["block_firings"] + stats["interpreted_firings"]
            == stats["total_firings"]
        )

    def test_program_cached_on_schedule(self):
        top = _build([1.0, 2.0], 1, 1)
        sim = Simulator(top, engine="block")
        sim.initialize()
        engine = BlockEngine(sim)
        first = engine.program_for(sim.schedule)
        assert engine.program_for(sim.schedule) is first
        # A processing registration invalidates the signature and
        # forces a recompile.
        top.dut.register_processing(top.dut.processing)
        assert engine.program_for(sim.schedule) is not first


class TestModuleState:
    def test_buck_boost_module_time_and_activations_match_interp(self):
        """Every module, SISO ops included, leaves the interpreter's
        ``time`` (its last firing) and ``activation_count`` behind."""
        from repro.systems.buck_boost import BuckBoostTop

        state = {}
        for engine in ("interp", "block"):
            top = BuckBoostTop("top")
            Simulator(top, engine=engine).run(ms(5))
            state[engine] = {
                m.name: (m.time, m.activation_count) for m in top.modules
            }
        assert state["block"] == state["interp"]
        # The SISO library elements fired last at 4.95 ms.
        for name in ("i_sense_gain", "i_vout_delay"):
            assert state["block"][name][0].femtoseconds == 4_950_000_000_000


class TestResolveEngine:
    def test_auto_and_none_resolve_to_block(self):
        assert resolve_engine("auto") == "block"
        assert resolve_engine(None) == "block"

    def test_explicit_names_pass_through(self):
        assert resolve_engine("interp") == "interp"
        assert resolve_engine("block") == "block"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("jit")

