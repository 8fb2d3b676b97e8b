"""Unit tests for the parallel-print tap (paper §V)."""

from repro.analysis import analyze_cluster
from repro.instrument import ParallelPrint, tap_signal
from repro.tdf import Cluster, Simulator, Tracer, ms
from repro.tdf.library import CollectorSink, GainTdf, StimulusSource

from helpers import Passthrough


def _top():
    class Top(Cluster):
        def architecture(self):
            self.src = self.add(StimulusSource("src", lambda t: t * 1000.0, ms(1)))
            self.dut = self.add(Passthrough("dut"))
            self.gain = self.add(GainTdf("gain", 2.0))
            self.sink = self.add(CollectorSink("sink"))
            self.sig_mid = self.connect(self.dut.op, self.gain.ip, name="mid")
            self.connect(self.src.op, self.dut.ip)
            self.connect(self.gain.op, self.sink.ip)

    return Top("top")


class TestTap:
    def test_tap_observes_signal_values(self):
        top = _top()
        tap = tap_signal(top, top.sig_mid)
        Simulator(top).run(ms(3))
        assert tap.values() == [0.0, 1.0, 2.0]

    def test_tap_records_token_indices(self):
        top = _top()
        tap = tap_signal(top, top.sig_mid)
        Simulator(top).run(ms(3))
        assert [i for i, _ in tap.m_samples] == [0, 1, 2]

    def test_tap_does_not_disturb_consumers(self):
        plain = _top()
        Simulator(plain).run(ms(3))
        tapped = _top()
        tap_signal(tapped, tapped.sig_mid)
        Simulator(tapped).run(ms(3))
        assert tapped.sink.values() == plain.sink.values()

    def test_tap_invisible_to_static_analysis(self):
        plain = _top()
        plain_result = analyze_cluster(plain)
        tapped = _top()
        tap_signal(tapped, tapped.sig_mid)
        tapped_result = analyze_cluster(tapped)
        plain_keys = {a.key for a in plain_result.associations}
        tapped_keys = {a.key for a in tapped_result.associations}
        assert plain_keys == tapped_keys

    def test_observational_equivalence_with_tracer(self):
        """The tap sees exactly the tokens a Tracer records."""
        top = _top()
        tap = tap_signal(top, top.sig_mid)
        tracer = Tracer()
        tracer.trace(top.sig_mid, "mid")
        Simulator(top).run(ms(4))
        assert tap.m_samples == list(enumerate(tracer.values("mid")))
        assert len(tap.m_samples) == 4

    def test_clear(self):
        top = _top()
        tap = tap_signal(top, top.sig_mid)
        Simulator(top).run(ms(2))
        tap.clear()
        assert tap.values() == []
