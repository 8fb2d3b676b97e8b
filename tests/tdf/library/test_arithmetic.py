"""Unit tests for arithmetic/threshold library models."""

import pytest

from helpers import PAYLOADS, payload_wave, record_block_sizes, typed_samples
from repro.tdf import Cluster, Simulator, ms
from repro.tdf.engine import WINDOW_PERIODS
from repro.tdf.library import (
    AdderTdf,
    CollectorSink,
    ComparatorTdf,
    MultiplierTdf,
    OffsetTdf,
    SaturatorTdf,
    SchmittTriggerTdf,
    StimulusSource,
    SubtractorTdf,
)


def _run_two_input(element, wave_a, wave_b, periods=4, engine="interp"):
    class Top(Cluster):
        def architecture(self):
            self.a = self.add(StimulusSource("a", wave_a, ms(1)))
            self.b = self.add(StimulusSource("b", wave_b))
            self.e = self.add(element)
            self.sink = self.add(CollectorSink("sink"))
            self.connect(self.a.op, self.e.ip_a)
            self.connect(self.b.op, self.e.ip_b)
            self.connect(self.e.op, self.sink.ip)

    top = Top("top")
    Simulator(top, engine=engine).run(ms(periods))
    return top.sink.values()


def _run_siso(element, wave, periods=4, engine="interp"):
    class Top(Cluster):
        def architecture(self):
            self.src = self.add(StimulusSource("src", wave, ms(1)))
            self.e = self.add(element)
            self.sink = self.add(CollectorSink("sink"))
            self.connect(self.src.op, self.e.ip)
            self.connect(self.e.op, self.sink.ip)

    top = Top("top")
    Simulator(top, engine=engine).run(ms(periods))
    return top.sink.values()


class TestTwoInput:
    def test_adder(self):
        assert _run_two_input(AdderTdf("e"), lambda t: 2.0, lambda t: 3.0) == [5.0] * 4

    def test_subtractor(self):
        assert _run_two_input(SubtractorTdf("e"), lambda t: 2.0, lambda t: 3.0) == [-1.0] * 4

    def test_multiplier(self):
        assert _run_two_input(MultiplierTdf("e"), lambda t: 2.0, lambda t: 3.0) == [6.0] * 4


#: Two whole block-engine windows plus a partial one.
BLOCK_PERIODS = WINDOW_PERIODS * 2 + 5


class TestBlockMatchesInterp:
    """``processing_block`` on whole windows computes what ``processing``
    computes sample by sample: same values, same types, same bits."""

    @pytest.mark.parametrize("cls", [AdderTdf, SubtractorTdf, MultiplierTdf])
    @pytest.mark.parametrize("kind_a", sorted(PAYLOADS))
    @pytest.mark.parametrize("kind_b", sorted(PAYLOADS))
    def test_two_input(self, monkeypatch, cls, kind_a, kind_b):
        wave_a, wave_b = payload_wave(PAYLOADS[kind_a]), payload_wave(PAYLOADS[kind_b])
        interp = _run_two_input(cls("e"), wave_a, wave_b, BLOCK_PERIODS, "interp")
        sizes = record_block_sizes(monkeypatch, cls)
        block = _run_two_input(cls("e"), wave_a, wave_b, BLOCK_PERIODS, "block")
        assert sizes.count(WINDOW_PERIODS) >= 2
        assert len(interp) == BLOCK_PERIODS
        assert typed_samples(block) == typed_samples(interp)

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    @pytest.mark.parametrize("offset", [10.0, -0.0, float("inf"), float("nan")])
    def test_offset(self, monkeypatch, kind, offset):
        wave = payload_wave(PAYLOADS[kind])
        interp = _run_siso(OffsetTdf("e", offset), wave, BLOCK_PERIODS, "interp")
        sizes = record_block_sizes(monkeypatch, OffsetTdf)
        block = _run_siso(OffsetTdf("e", offset), wave, BLOCK_PERIODS, "block")
        assert sizes.count(WINDOW_PERIODS) >= 2
        assert len(interp) == BLOCK_PERIODS
        assert typed_samples(block) == typed_samples(interp)


class TestSiso:
    def test_offset(self):
        assert _run_siso(OffsetTdf("e", 10.0), lambda t: 1.0) == [11.0] * 4

    def test_saturator_clamps_both_sides(self):
        values = iter([-5.0, 0.5, 5.0, 1.0])
        wave = lambda t: next(values)
        assert _run_siso(SaturatorTdf("e", -1.0, 1.0), wave) == [-1.0, 0.5, 1.0, 1.0]

    def test_saturator_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SaturatorTdf("e", 2.0, 1.0)

    def test_comparator(self):
        values = iter([0.5, 1.5, 1.0, 2.0])
        wave = lambda t: next(values)
        assert _run_siso(ComparatorTdf("e", 1.0), wave) == [False, True, False, True]

    def test_schmitt_hysteresis(self):
        values = iter([0.0, 2.5, 1.5, 0.5, 1.5, 2.5])
        wave = lambda t: next(values)
        out = _run_siso(SchmittTriggerTdf("e", 1.0, 2.0), wave, periods=6)
        assert out == [False, True, True, False, False, True]

    def test_schmitt_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            SchmittTriggerTdf("e", 2.0, 1.0)

    def test_none_are_redefining(self):
        for element in [
            AdderTdf("a"), OffsetTdf("o", 1.0), SaturatorTdf("s", 0, 1),
            ComparatorTdf("c", 1.0), SchmittTriggerTdf("st", 0, 1),
        ]:
            assert not element.REDEFINING
