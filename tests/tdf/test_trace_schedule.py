"""Traces copied from the token buffers, timed from the schedule.

A :class:`~repro.tdf.Tracer` never runs per sample: it copies committed
tokens out of the signal buffer and stamps each with ``anchor + (index -
anchor_index) × timestep``, re-anchored at every schedule swap.  These
tests pin the rows that scheme must reproduce on both engines: across
dynamic-TDF timestep changes, through garbage collection, and for
output-delay priming.
"""

import pytest

from repro.tdf import Cluster, Simulator, TdfIn, TdfModule, TdfOut, Tracer, ms
from repro.tdf.engine import compile_program
from repro.tdf.engine.compiler import _classify
from repro.tdf.library import CollectorSink, SineSource

ENGINES = ("interp", "block")
US = 1_000_000_000


def _fs_rows(rows):
    return [(None if t is None else t.femtoseconds, v) for t, v in rows]


class _Refiner(TdfModule):
    """Halves its timestep from inside ``processing()`` at its sixth
    activation and restores it at its fifteenth (a processing-filed
    request: the block engine truncates its window and rolls back the
    tokens it hoisted for the rest of it)."""

    def __init__(self, name="dut"):
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()

    def set_attributes(self):
        self.set_timestep(ms(2))

    def processing(self):
        self.op.write(self.ip.read() * 2.0)
        if self.activation_count == 5:
            self.request_timestep(ms(1))
        elif self.activation_count == 14:
            self.request_timestep(ms(2))


def _refiner_top():
    class Top(Cluster):
        def architecture(self):
            self.src = self.add(SineSource("src", frequency_hz=7.0))
            self.dut = self.add(_Refiner())
            self.sink = self.add(CollectorSink("sink"))
            self.connect(self.src.op, self.dut.ip)
            self.connect(self.dut.op, self.sink.ip)

    return Top("top")


class _Primed(TdfModule):
    """A counter whose output port emits two delay samples first."""

    def __init__(self, name="src"):
        super().__init__(name)
        self.op = TdfOut()
        self.m_n = 0

    def set_attributes(self):
        self.set_timestep(ms(1))
        self.op.set_delay(2)
        self.op.set_initial_values([-2.0, -1.0])

    def processing(self):
        self.op.write(float(self.m_n))
        self.m_n += 1


def _primed_top():
    class Top(Cluster):
        def architecture(self):
            self.src = self.add(_Primed())
            self.sink = self.add(CollectorSink("sink"))
            self.connect(self.src.op, self.sink.ip)

    return Top("top")


class TestScheduleTimes:
    def test_window_lifter_oracle_across_its_timestep_change(self):
        """The full close refines the MCU timestep to 250 us near the
        end stop and restores 1 ms once closed; both engines give the
        rows pinned below (as a per-sample write observer recorded
        them)."""
        from repro.systems.campaigns import window_lifter_base_suite
        from repro.systems.window_lifter import WindowLifterTop

        tc = next(t for t in window_lifter_base_suite() if t.name == "wl_close_full")
        rows = {}
        for engine in ENGINES:
            top = WindowLifterTop()
            tc.apply(top)
            tracer = Tracer()
            for name in top.MUTATION_ORACLE_SIGNALS:
                tracer.trace(top._signals[name], name)
            sim = Simulator(top, engine=engine)
            sim.run(tc.duration)
            assert sim.reelaborations == 2
            rows[engine] = {
                name: tracer.samples(name) for name in top.MUTATION_ORACLE_SIGNALS
            }
        assert rows["block"] == rows["interp"]
        shape = {}
        for name, r in rows["block"].items():
            times = [t for t, _ in _fs_rows(r)]
            timed = [t for t in times if t is not None]
            gaps = {later - earlier for earlier, later in zip(timed, timed[1:])}
            shape[name] = (len(r), times[0], times[-1], sorted(gaps))
        steps = [250 * US, 1000 * US]
        end = 1999 * 1000 * US
        assert shape == {
            "drive_slewed": (2793, None, end, steps),
            "position_scaled": (2792, 0, end, steps),
            "speed": (2792, 0, end, steps),
            "overcurrent": (2792, 0, end, steps),
            "pinch": (2792, 0, end, steps),
        }

    def test_mid_window_request_rows_match_the_interpreter(self):
        """A request filed inside ``processing()`` cuts a block window:
        the hoisted source's excess tokens are rolled back before the
        tracer copies them and the anchor moves to the swap."""
        rows, module_times = {}, {}
        for engine in ENGINES:
            top = _refiner_top()
            tracer = Tracer()
            tracer.trace(top.src.op.signal, "src")
            tracer.trace(top.dut.op.signal, "dut")
            sim = Simulator(top, engine=engine)
            sim.run(ms(60))
            assert sim.reelaborations == 2
            rows[engine] = {name: tracer.samples(name) for name in ("src", "dut")}
            module_times[engine] = [module.time for module in top.modules]
            if engine == "block":
                assert sim._block_engine.program_for(sim.schedule).stats[
                    "pre_modules"
                ] == ["src"]
        assert rows["block"] == rows["interp"]
        assert module_times["block"] == module_times["interp"]
        # 2 ms up to the request at 10 ms, 1 ms from the swap at 12 ms
        # to the request at 20 ms, 2 ms again from the swap at 21 ms.
        assert [t for t, _ in _fs_rows(rows["block"]["src"])] == [
            k * 1000 * US
            for k in [*range(0, 12, 2), *range(12, 21), *range(21, 60, 2)]
        ]
        assert [v for _, v in rows["block"]["dut"]] == [
            2.0 * v for _, v in rows["block"]["src"]
        ]

    def test_collected_tokens_still_yield_every_row(self):
        """On the interpreter the reader consumes every token, so garbage
        collection runs every activation and drops tokens long before
        the tracer is read; the hand-off keeps every row."""
        top = _refiner_top()
        tracer = Tracer()
        signal = top.dut.op.signal
        tracer.trace(signal, "dut")
        sim = Simulator(top, engine="interp")
        sim.run(ms(400))
        assert signal._base_index > 0  # tokens were collected
        rows = tracer.samples("dut")
        assert len(rows) == signal.write_count == len(top.sink.m_samples)
        assert [v for _, v in rows] == [v for _, v in top.sink.m_samples]
        assert [t.to_seconds() for t, _ in rows] == [t for t, _ in top.sink.m_samples]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_output_delay_priming_rows_have_no_time(self, engine):
        top = _primed_top()
        tracer = Tracer()
        tracer.trace(top.src.op.signal, "src")
        Simulator(top, engine=engine).run(ms(3))
        assert _fs_rows(tracer.samples("src")) == [
            (None, -2.0),
            (None, -1.0),
            (0, 0.0),
            (1000 * US, 1.0),
            (2000 * US, 2.0),
        ]
        # The untimed rows precede time 0 in the sample-and-hold table.
        assert tracer.to_csv("ms") == "time_ms,src\n0,0.0\n1,1.0\n2,2.0\n"


class TestTracedCompile:
    def test_tracing_keeps_buck_boost_block_capable(self):
        """Tracing the five oracle signals adds no fallback: the compiled
        program is the untraced one, ``i_sense_gain`` keeps its SISO op."""
        from repro.systems.buck_boost import BuckBoostTop

        stats = {}
        for traced in (False, True):
            top = BuckBoostTop()
            if traced:
                tracer = Tracer()
                for name in top.MUTATION_ORACLE_SIGNALS:
                    tracer.trace(top._signals[name], name)
            sim = Simulator(top, engine="block")
            sim.initialize()
            stats[traced] = compile_program(sim, sim.schedule).stats
            assert _classify(top.module("i_sense_gain")).siso == "gain"
        assert stats[True] == stats[False]
        assert stats[True]["block_ratio"] == 0.5
        assert "i_sense_gain" not in stats[True]["fallbacks"]
        assert all(
            reasons == ["no_block"] for reasons in stats[True]["fallbacks"].values()
        )


class TestReads:
    def test_rows_read_mid_run_continue_where_they_stopped(self, passthrough_cluster):
        top = passthrough_cluster
        tracer = Tracer()
        tracer.trace(top.signals[1], "out")
        sim = Simulator(top, engine="block")
        sim.run(ms(3))
        first = tracer.samples("out")
        sim.run(ms(2))
        rows = tracer.samples("out")
        assert rows[:3] == first
        assert [t for t, _ in rows] == [ms(k) for k in range(5)]

    def test_a_signal_traced_twice_gets_both_traces(self, passthrough_cluster):
        top = passthrough_cluster
        a, b = Tracer(), Tracer()
        a.trace(top.signals[0], "in")
        b.trace(top.signals[0], "in")
        Simulator(top).run(ms(2))
        assert a.samples("in") == b.samples("in") == [(ms(0), 1.5), (ms(1), 1.5)]

    def test_a_tracer_attached_after_initialize_is_timed(self, passthrough_cluster):
        top = passthrough_cluster
        sim = Simulator(top, engine="block")
        sim.initialize()
        tracer = Tracer()
        tracer.trace(top.signals[1], "out")
        sim.run(ms(2))
        assert tracer.samples("out") == [(ms(0), 1.5), (ms(1), 1.5)]
