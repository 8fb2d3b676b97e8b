"""Unit tests for the simulation kernel, including dynamic TDF."""

import pytest

from repro.tdf import (
    Cluster,
    SimulationError,
    Simulator,
    TdfIn,
    TdfModule,
    TdfOut,
    ms,
    us,
)
from repro.tdf.library import CollectorSink, ConstantSource, StimulusSource

from helpers import Accumulator, Passthrough


class TestBasicExecution:
    def test_run_executes_whole_periods(self, passthrough_cluster):
        sim = Simulator(passthrough_cluster)
        sim.run(ms(3))
        assert sim.now == ms(3)
        assert sim.periods_run == 3

    def test_run_rounds_up_to_period_boundary(self, passthrough_cluster):
        sim = Simulator(passthrough_cluster)
        sim.run(us(2500))
        assert sim.now == ms(3)

    def test_run_zero_duration(self, passthrough_cluster):
        sim = Simulator(passthrough_cluster)
        sim.run(ms(0))
        assert sim.periods_run == 0

    def test_negative_duration_rejected(self, passthrough_cluster):
        with pytest.raises(SimulationError):
            Simulator(passthrough_cluster).run(ms(-1))

    def test_run_periods(self, passthrough_cluster):
        sim = Simulator(passthrough_cluster)
        sim.run_periods(5)
        assert passthrough_cluster.sink.values() == [1.5] * 5

    def test_incremental_runs_accumulate(self, passthrough_cluster):
        sim = Simulator(passthrough_cluster)
        sim.run(ms(2))
        sim.run(ms(2))
        assert len(passthrough_cluster.sink.values()) == 4


class TestDataflowCorrectness:
    def test_accumulator_state_across_periods(self):
        class Top(Cluster):
            def architecture(self):
                self.src = self.add(ConstantSource("src", 2.0, timestep=ms(1)))
                self.acc = self.add(Accumulator("acc"))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.acc.ip)
                self.connect(self.acc.op, self.sink.ip)

        top = Top("top")
        Simulator(top).run(ms(4))
        assert top.sink.values() == [2.0, 4.0, 6.0, 8.0]

    def test_stimulus_source_samples_time(self):
        class Top(Cluster):
            def architecture(self):
                self.src = self.add(StimulusSource("src", lambda t: t * 1000.0, ms(1)))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.sink.ip)

        top = Top("top")
        Simulator(top).run(ms(4))
        assert top.sink.values() == [0.0, 1.0, 2.0, 3.0]


class _TimestepSwitcher(TdfModule):
    """Requests a new timestep after a given number of activations."""

    def __init__(self, name, switch_after, new_ts):
        super().__init__(name)
        self.op = TdfOut()
        self.m_switch_after = switch_after
        self.m_new_ts = new_ts
        self.m_times = []

    def set_attributes(self):
        self.set_timestep(ms(1))

    def processing(self):
        self.m_times.append(self.time)
        self.op.write(0.0)

    def change_attributes(self):
        if self.activation_count == self.m_switch_after and self.timestep != self.m_new_ts:
            self.request_timestep(self.m_new_ts)


class TestDynamicTdf:
    def _top(self):
        class Top(Cluster):
            def architecture(self):
                self.src = self.add(_TimestepSwitcher("src", 2, us(250)))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.sink.ip)

        return Top("top")

    def test_timestep_change_applies_at_period_boundary(self):
        top = self._top()
        sim = Simulator(top)
        sim.run(ms(3))
        assert sim.reelaborations == 1
        # Two activations at 1 ms, then 0.25 ms steps.
        assert top.src.m_times[:3] == [ms(0), ms(1), ms(2)]
        assert top.src.m_times[3] == ms(2) + us(250)

    def test_time_continues_monotonically(self):
        top = self._top()
        sim = Simulator(top)
        sim.run(ms(4))
        times = [t.femtoseconds for t in top.src.m_times]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_signal_data_survives_reelaboration(self):
        top = self._top()
        sim = Simulator(top)
        sim.run(ms(3))
        # All produced samples arrive at the sink, none lost or reset.
        assert len(top.sink.values()) == top.src.activation_count


class TestErrorPaths:
    def test_finish_calls_end_of_simulation(self):
        done = []

        class M(TdfModule):
            def __init__(self, name):
                super().__init__(name)
                self.op = TdfOut()

            def set_attributes(self):
                self.set_timestep(ms(1))

            def processing(self):
                self.op.write(0.0)

            def end_of_simulation(self):
                done.append(self.name)

        class Top(Cluster):
            def architecture(self):
                self.m = self.add(M("m"))
                self.s = self.add(CollectorSink("s"))
                self.connect(self.m.op, self.s.ip)

        sim = Simulator(Top("top"))
        sim.run(ms(1))
        sim.finish()
        assert done == ["m"]

    def test_exception_in_processing_propagates(self):
        class Boom(TdfModule):
            def __init__(self, name):
                super().__init__(name)
                self.op = TdfOut()

            def set_attributes(self):
                self.set_timestep(ms(1))

            def processing(self):
                raise RuntimeError("boom")

        class Top(Cluster):
            def architecture(self):
                self.m = self.add(Boom("m"))
                self.s = self.add(CollectorSink("s"))
                self.connect(self.m.op, self.s.ip)

        with pytest.raises(RuntimeError, match="boom"):
            Simulator(Top("top")).run(ms(1))
