"""Unit tests for the signal tracer."""

import pytest

from repro.tdf import Simulator, Tracer, ms
from repro.tdf.errors import TdfError


class TestTracer:
    def test_records_time_value_rows(self, passthrough_cluster):
        top = passthrough_cluster
        tracer = Tracer()
        tracer.trace(top.signals[1], "out")
        Simulator(top).run(ms(2))
        rows = tracer.samples("out")
        assert [v for _, v in rows] == [1.5, 1.5]
        assert rows[0][0] == ms(0)
        assert rows[1][0] == ms(1)
        assert tracer.samples("out", 1) == rows[1:]
        assert tracer.samples("out", 2) == []

    def test_values_and_last(self, passthrough_cluster):
        top = passthrough_cluster
        tracer = Tracer()
        tracer.trace(top.signals[0], "in")
        Simulator(top).run(ms(3))
        assert tracer.values("in") == [1.5, 1.5, 1.5]
        assert tracer.last("in") == 1.5

    def test_last_without_samples_raises(self, passthrough_cluster):
        tracer = Tracer()
        tracer.trace(passthrough_cluster.signals[0], "in")
        with pytest.raises(ValueError, match="no samples"):
            tracer.last("in")

    def test_duplicate_name_rejected(self, passthrough_cluster):
        tracer = Tracer()
        tracer.trace(passthrough_cluster.signals[0], "x")
        with pytest.raises(ValueError, match="already tracing"):
            tracer.trace(passthrough_cluster.signals[1], "x")

    def test_clear_keeps_subscription(self, passthrough_cluster):
        top = passthrough_cluster
        tracer = Tracer()
        tracer.trace(top.signals[0], "in")
        sim = Simulator(top)
        sim.run(ms(1))
        tracer.clear()
        sim.run(ms(1))
        assert len(tracer.values("in")) == 1

    def test_tabular_dump(self, passthrough_cluster):
        top = passthrough_cluster
        tracer = Tracer()
        tracer.trace(top.signals[0], "a")
        tracer.trace(top.signals[1], "b")
        Simulator(top).run(ms(2))
        text = tracer.to_tabular("ms")
        lines = text.strip().splitlines()
        assert lines[0] == "time_ms\ta\tb"
        assert len(lines) == 3  # header + 2 sample times
        assert lines[1].startswith("0\t")

    def test_names_in_order(self, passthrough_cluster):
        tracer = Tracer()
        tracer.trace(passthrough_cluster.signals[1], "z")
        tracer.trace(passthrough_cluster.signals[0], "a")
        assert tracer.names() == ["z", "a"]

    def test_trace_after_simulation_start_raises(self, passthrough_cluster):
        top = passthrough_cluster
        Simulator(top).run(ms(1))
        tracer = Tracer()
        with pytest.raises(TdfError, match="before the simulation starts"):
            tracer.trace(top.signals[0], "late")

    def test_csv_dump(self, passthrough_cluster):
        top = passthrough_cluster
        tracer = Tracer()
        tracer.trace(top.signals[0], "a")
        tracer.trace(top.signals[1], "b")
        Simulator(top).run(ms(2))
        text = tracer.to_csv("ms")
        lines = text.strip().splitlines()
        assert lines[0] == "time_ms,a,b"
        assert len(lines) == 3  # header + 2 sample times
        assert lines[1].startswith("0,")

    def test_csv_matches_tabular_table(self, passthrough_cluster):
        top = passthrough_cluster
        tracer = Tracer()
        tracer.trace(top.signals[0], "a")
        Simulator(top).run(ms(3))
        tabular = [l.split("\t") for l in tracer.to_tabular("us").strip().splitlines()]
        csv_rows = [l.split(",") for l in tracer.to_csv("us").strip().splitlines()]
        assert tabular == csv_rows
