"""End-to-end telemetry through the DFT pipeline (Fig. 3 stages)."""

import pytest

from repro.core import DftConfig, run_dft
from repro.obs import get_telemetry, telemetry_session
from repro.tdf import Cluster, TdfIn, TdfModule, TdfOut, ms
from repro.tdf.library import CollectorSink, StimulusSource
from repro.testing import TestCase, TestSuite


class Doubler(TdfModule):
    def __init__(self, name="doubler"):
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()

    def processing(self):
        self.op.write(self.ip.read() * 2.0)


def _factory():
    class Top(Cluster):
        def architecture(self):
            self.src = self.add(StimulusSource("src", lambda t: 1.0, ms(1)))
            self.dut = self.add(Doubler())
            self.sink = self.add(CollectorSink("sink"))
            self.connect(self.src.op, self.dut.ip)
            self.connect(self.dut.op, self.sink.ip)

    return Top("top")


def _suite():
    return TestSuite(
        "s",
        [
            TestCase("tc1", ms(3), lambda c: None),
            TestCase("tc2", ms(2), lambda c: None),
        ],
    )


class TestPipelineTelemetry:
    def test_fig3_stages_produce_expected_spans(self):
        with telemetry_session() as tel:
            run_dft(_factory, _suite())
        names = tel.span_names()
        # >= 4 distinct names covering all three Fig. 3 stages.
        assert "pipeline" in names
        assert "static" in names
        assert "dynamic" in names
        assert "coverage" in names
        assert "dynamic.testcase[tc1]" in names
        assert "dynamic.testcase[tc2]" in names
        assert "tdf.simulate" in names
        assert len(names) >= 4
        # All spans closed, stage spans nested under the pipeline root.
        assert all(span.closed for span in tel.spans)
        root = tel.find_spans("pipeline")[0]
        for stage in ("static", "dynamic", "coverage"):
            assert tel.find_spans(stage)[0].parent_id == root.span_id

    def test_kernel_counters_recorded(self):
        with telemetry_session() as tel:
            run_dft(_factory, _suite())
        counters = {
            (c.name, tuple(sorted(c.labels.items()))): c.value
            for c in tel.metrics.counters()
        }
        # Periods simulated: 3 (tc1) + 2 (tc2).
        assert counters[("tdf.periods", (("cluster", "top"),))] == 5
        # One compiled program per testcase simulation, 3 firings each.
        assert counters[("tdf.engine_compiled_firings", (("cluster", "top"),))] == 6
        # One cluster build for static + one per testcase.
        assert counters[("pipeline.cluster_builds", ())] == 3
        # The static stage missed the (cleared) analysis cache once.
        assert counters[("analysis.cache_misses", (("cluster", "top"),))] == 1
        # Each paired testcase reports its pair count.
        testcase_spans = [
            span for span in tel.spans if span.name.startswith("dynamic.testcase[")
        ]
        assert len(testcase_spans) == 2
        assert all(span.attributes["exercised_pairs"] > 0 for span in testcase_spans)

    def test_timings_view_matches_spans(self):
        with telemetry_session():
            result = run_dft(_factory, _suite())
        assert set(result.timings) == {"static", "dynamic", "coverage"}
        for name, seconds in result.timings.items():
            assert seconds == result.spans[name].wall
            assert seconds >= 0

    def test_disabled_mode_still_provides_timings(self):
        assert not get_telemetry().enabled
        result = run_dft(_factory, _suite())
        assert set(result.timings) == {"static", "dynamic", "coverage"}
        assert all(t >= 0 for t in result.timings.values())
        # The run recorded into a private session, not the global null.
        assert result.telemetry is not None
        assert result.telemetry is not get_telemetry()
        assert get_telemetry().spans == []

    def test_results_identical_with_and_without_telemetry(self):
        plain = run_dft(_factory, _suite())
        with telemetry_session():
            traced = run_dft(_factory, _suite())
        assert {a.key for a in plain.static.associations} == {
            a.key for a in traced.static.associations
        }
        assert plain.dynamic.exercised_keys() == traced.dynamic.exercised_keys()
        assert plain.coverage.class_coverage() == traced.coverage.class_coverage()

    def test_explicit_telemetry_argument_wins(self):
        from repro.obs import Telemetry

        explicit = Telemetry()
        result = run_dft(_factory, _suite(), DftConfig(telemetry=explicit))
        assert result.telemetry is explicit
        assert explicit.find_spans("pipeline")
