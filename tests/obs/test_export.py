"""Tests for the telemetry exporters: JSONL, tree summary, Chrome trace."""

import io
import json

import pytest

from repro.obs import (
    Telemetry,
    chrome_trace_events,
    format_tree,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)


def _session() -> Telemetry:
    tel = Telemetry()
    with tel.span("pipeline", system="demo"):
        with tel.span("static"):
            pass
        with tel.span("dynamic"):
            with tel.span("dynamic.testcase[tc1]", testcase="tc1"):
                pass
    tel.metrics.counter("tdf.periods", cluster="top").inc(40)
    return tel


class TestJsonl:
    def test_round_trip_through_stream(self):
        tel = _session()
        buf = io.StringIO()
        write_jsonl(tel, buf)
        run = read_jsonl(io.StringIO(buf.getvalue()))
        assert run == tel.to_run()

    def test_round_trip_through_file(self, tmp_path):
        tel = _session()
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tel, path)
        run = read_jsonl(path)
        assert run["meta"]["format"] == "repro-telemetry"
        assert [s["name"] for s in run["spans"]] == [
            "pipeline", "static", "dynamic", "dynamic.testcase[tc1]",
        ]
        assert len(run["metrics"]) == 1

    def test_every_line_is_json(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_jsonl(_session(), path)
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == 1 + 4 + 1  # meta + spans + metrics
        for line in lines:
            json.loads(line)

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry record"):
            read_jsonl(io.StringIO('{"type": "mystery"}\n'))

    def test_parent_links_survive_round_trip(self):
        buf = io.StringIO()
        write_jsonl(_session(), buf)
        run = read_jsonl(io.StringIO(buf.getvalue()))
        by_name = {s["name"]: s for s in run["spans"]}
        assert by_name["static"]["parent"] == by_name["pipeline"]["id"]
        assert (
            by_name["dynamic.testcase[tc1]"]["parent"] == by_name["dynamic"]["id"]
        )


class TestFormatTree:
    def test_tree_shows_nesting_and_metrics(self):
        text = format_tree(_session())
        lines = text.splitlines()
        assert lines[0] == "spans:"
        assert any(line.lstrip().startswith("pipeline") for line in lines)
        # Children are indented deeper than the root.
        pipeline_indent = next(len(l) - len(l.lstrip()) for l in lines if "pipeline" in l)
        static_indent = next(len(l) - len(l.lstrip()) for l in lines if "static" in l)
        assert static_indent > pipeline_indent
        assert "metrics:" in text
        assert "tdf.periods{cluster=top}" in text
        assert "40" in text

    def test_tree_identical_for_live_and_loaded_session(self):
        tel = _session()
        buf = io.StringIO()
        write_jsonl(tel, buf)
        run = read_jsonl(io.StringIO(buf.getvalue()))
        assert format_tree(run) == format_tree(tel)

    def test_empty_session(self):
        assert "(none recorded)" in format_tree(Telemetry())

    def test_older_gauge_and_histogram_lines_are_skipped(self):
        tel = _session()
        buf = io.StringIO()
        write_jsonl(tel, buf)
        buf.write(json.dumps({
            "type": "metric", "kind": "gauge", "name": "tdf.schedule_length",
            "labels": {"cluster": "top"}, "value": 4,
        }) + "\n")
        buf.write(json.dumps({
            "type": "metric", "kind": "histogram", "name": "tdf.period_seconds",
            "labels": {"cluster": "top"}, "summary": {"count": 0, "sum": 0.0},
        }) + "\n")
        text = format_tree(read_jsonl(io.StringIO(buf.getvalue())))
        assert text == format_tree(tel)

    def test_hit_rate_derived_from_counter_pairs(self):
        tel = Telemetry()
        tel.metrics.counter("tdf.schedule_cache_hits", cluster="top").inc(7)
        tel.metrics.counter("tdf.schedule_cache_misses", cluster="top").inc(3)
        text = format_tree(tel)
        assert "derived:" in text
        assert "tdf.schedule_cache_hit_rate{cluster=top}" in text
        assert "0.7000" in text

    def test_no_derived_section_without_pairs(self):
        text = format_tree(_session())
        assert "derived:" not in text
        assert "hit_rate" not in text


class TestChromeTrace:
    def test_file_is_valid_trace_event_json(self, tmp_path):
        path = str(tmp_path / "run.trace.json")
        write_chrome_trace(_session(), path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert isinstance(events, list) and events

    def test_span_events_are_complete_events(self):
        events = chrome_trace_events(_session())
        spans = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in spans] == [
            "pipeline", "static", "dynamic", "dynamic.testcase[tc1]",
        ]
        for event in spans:
            assert event["pid"] == 1 and event["tid"] == 1
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        # Nested spans sit inside their parent's interval.
        by_name = {e["name"]: e for e in spans}
        parent, child = by_name["pipeline"], by_name["static"]
        assert child["ts"] >= parent["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-6

    def test_counters_become_counter_events(self):
        events = chrome_trace_events(_session())
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "tdf.periods{cluster=top}"
        assert counters[0]["args"] == {"value": 40}
