"""Unit tests for the redefining SISO elements (gain / delay / buffer)."""

import pytest

from helpers import PAYLOADS, payload_wave, record_block_sizes, typed_samples
from repro.tdf import Cluster, Simulator, ms
from repro.tdf.engine import WINDOW_PERIODS
from repro.tdf.library import (
    BufferTdf,
    CollectorSink,
    ConstantSource,
    DelayTdf,
    GainTdf,
    StimulusSource,
)


def _chain(element, waveform=lambda t: t * 1000.0):
    class Top(Cluster):
        def architecture(self):
            self.src = self.add(StimulusSource("src", waveform, ms(1)))
            self.e = self.add(element)
            self.sink = self.add(CollectorSink("sink"))
            self.connect(self.src.op, self.e.ip)
            self.connect(self.e.op, self.sink.ip)

    return Top("top")


def _run(element, waveform, periods, engine):
    top = _chain(element, waveform)
    Simulator(top, engine=engine).run(ms(periods))
    return top.sink.values()


class TestGain:
    def test_amplifies(self):
        top = _chain(GainTdf("g", 2.5), lambda t: 4.0)
        Simulator(top).run(ms(3))
        assert top.sink.values() == [10.0, 10.0, 10.0]

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    @pytest.mark.parametrize("gain", [2.5, -0.0, float("inf"), float("nan")])
    def test_block_matches_interp_on_whole_windows(self, monkeypatch, kind, gain):
        periods = WINDOW_PERIODS * 2 + 5  # two whole windows and a partial one
        wave = payload_wave(PAYLOADS[kind])
        interp = _run(GainTdf("g", gain), wave, periods, "interp")
        sizes = record_block_sizes(monkeypatch, GainTdf)
        block = _run(GainTdf("g", gain), wave, periods, "block")
        assert sizes.count(WINDOW_PERIODS) >= 2
        assert len(interp) == periods
        assert typed_samples(block) == typed_samples(interp)

    def test_is_redefining_and_opaque(self):
        g = GainTdf("g", 1.0)
        assert g.REDEFINING
        assert g.OPAQUE_USES


class TestDelay:
    def test_unit_delay_shifts_stream(self):
        top = _chain(DelayTdf("d", 1))
        Simulator(top).run(ms(4))
        assert top.sink.values() == [0.0, 0.0, 1.0, 2.0]

    def test_multi_sample_delay_with_initial_value(self):
        top = _chain(DelayTdf("d", 3, initial_value=-1.0))
        Simulator(top).run(ms(5))
        assert top.sink.values() == [-1.0, -1.0, -1.0, 0.0, 1.0]

    def test_delay_breaks_feedback_loop(self):
        from helpers import Passthrough

        class Loop(Cluster):
            def architecture(self):
                self.p = self.add(Passthrough("p"))
                self.d = self.add(DelayTdf("d", 1))
                self.d.register_processing(self.d.processing)  # no-op sanity
                self.sink = self.add(CollectorSink("sink"))
                sig_fw = self.connect(self.p.op, self.d.ip)
                self.sink.ip.bind(sig_fw)
                self.connect(self.d.op, self.p.ip)
                self.p.set_timestep(ms(1))

        top = Loop("loop")
        Simulator(top).run(ms(3))  # schedules without deadlock
        assert top.sink.values() == [0.0, 0.0, 0.0]

    def test_is_redefining(self):
        assert DelayTdf("d").REDEFINING


class TestBuffer:
    def test_regenerates_unchanged(self):
        top = _chain(BufferTdf("b"))
        Simulator(top).run(ms(3))
        assert top.sink.values() == [0.0, 1.0, 2.0]

    def test_is_redefining(self):
        assert BufferTdf("b").REDEFINING
