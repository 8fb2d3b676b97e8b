"""Unit tests for the telemetry core: spans, metrics, no-op mode."""

import pytest

from repro.obs import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)


class TestSpans:
    def test_nesting_records_parent_ids(self):
        tel = Telemetry()
        with tel.span("outer") as outer:
            with tel.span("inner") as inner:
                with tel.span("leaf") as leaf:
                    pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id

    def test_siblings_share_parent(self):
        tel = Telemetry()
        with tel.span("root") as root:
            with tel.span("a") as a:
                pass
            with tel.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_timing_monotonicity(self):
        tel = Telemetry()
        with tel.span("outer") as outer:
            with tel.span("inner") as inner:
                sum(range(1000))
        assert inner.closed and outer.closed
        assert 0 <= inner.wall <= outer.wall
        assert inner.start_wall >= outer.start_wall
        assert inner.end_wall <= outer.end_wall
        assert outer.cpu >= 0

    def test_current_span_tracks_stack(self):
        tel = Telemetry()
        assert tel.current_span() is None
        with tel.span("outer") as outer:
            assert tel.current_span() is outer
            with tel.span("inner") as inner:
                assert tel.current_span() is inner
            assert tel.current_span() is outer
        assert tel.current_span() is None

    def test_attributes_and_error_marking(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with tel.span("work", kind="unit") as span:
                span.set_attribute("extra", 1)
                raise RuntimeError("boom")
        assert span.attributes == {"kind": "unit", "extra": 1, "error": "RuntimeError"}
        assert span.closed

    def test_end_is_idempotent(self):
        tel = Telemetry()
        span = tel.span("once")
        span.end()
        first_end = span.end_wall
        span.end()
        assert span.end_wall == first_end

    def test_find_spans_and_names(self):
        tel = Telemetry()
        with tel.span("stage"):
            with tel.span("step"):
                pass
            with tel.span("step"):
                pass
        assert len(tel.find_spans("step")) == 2
        assert tel.span_names() == ["stage", "step"]


class TestMetrics:
    def test_counter_math(self):
        tel = Telemetry()
        counter = tel.metrics.counter("events")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        assert tel.metrics.counter("events") is counter

    def test_counter_rejects_decrease(self):
        counter = Telemetry().metrics.counter("events")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_labels_separate_series(self):
        tel = Telemetry()
        tel.metrics.counter("hits", module="a").inc(1)
        tel.metrics.counter("hits", module="b").inc(2)
        assert tel.metrics.counter("hits", module="a").value == 1
        assert tel.metrics.counter("hits", module="b").value == 2
        assert len(tel.metrics.counters()) == 2

    def test_records_are_counter_records(self):
        tel = Telemetry()
        tel.metrics.counter("c", k="v").inc(5)
        assert tel.metrics.records() == [{
            "type": "metric", "kind": "counter",
            "name": "c", "labels": {"k": "v"}, "value": 5,
        }]

    def test_merge_adds_counters(self):
        worker = Telemetry()
        worker.metrics.counter("c", k="v").inc(5)
        worker.metrics.counter("d").inc(1)
        parent = Telemetry()
        parent.metrics.counter("c", k="v").inc(2)
        parent.metrics.merge_raw(worker.metrics.records())
        assert parent.metrics.counter("c", k="v").value == 7
        assert parent.metrics.counter("d").value == 1

    def test_merge_rejects_unknown_kind(self):
        record = {"kind": "histogram", "name": "h", "labels": {}, "values": [1.0]}
        with pytest.raises(ValueError, match="unknown metric record kind"):
            Telemetry().metrics.merge_raw([record])


class TestNullMode:
    def test_disabled_by_default(self):
        assert get_telemetry() is NULL_TELEMETRY
        assert not get_telemetry().enabled

    def test_noop_objects_are_shared_singletons(self):
        null = NullTelemetry()
        assert null.span("a") is null.span("b")
        assert null.metrics.counter("x") is null.metrics.counter("y", k="v")

    def test_noop_operations_record_nothing(self):
        null = NULL_TELEMETRY
        with null.span("work", attr=1) as span:
            span.set_attribute("k", "v")
        null.metrics.counter("c").inc(10)
        assert null.spans == []
        assert null.metrics.records() == []
        assert null.to_run()["spans"] == []

    def test_session_activates_and_restores(self):
        before = get_telemetry()
        with telemetry_session() as tel:
            assert get_telemetry() is tel
            assert tel.enabled
            with telemetry_session() as nested:
                assert get_telemetry() is nested
            assert get_telemetry() is tel
        assert get_telemetry() is before

    def test_session_restores_on_error(self):
        before = get_telemetry()
        with pytest.raises(RuntimeError):
            with telemetry_session():
                raise RuntimeError("boom")
        assert get_telemetry() is before

    def test_set_telemetry_none_means_null(self):
        previous = set_telemetry(None)
        try:
            assert get_telemetry() is NULL_TELEMETRY
        finally:
            set_telemetry(previous)

    def test_sessions_are_thread_isolated(self):
        # Two threads racing set/restore on a shared slot could leave a
        # stale session installed process-wide (seen with two in-process
        # service workers); the active telemetry is per-thread instead.
        import threading

        errors = []
        barrier = threading.Barrier(2)

        def worker():
            try:
                for _ in range(50):
                    barrier.wait()
                    with telemetry_session() as tel:
                        assert get_telemetry() is tel
                    assert get_telemetry() is NULL_TELEMETRY
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        with telemetry_session() as main_tel:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # The main thread's session never leaks into the workers,
            # and the workers' churn never displaces it here.
            assert get_telemetry() is main_tel
        assert not errors
        assert get_telemetry() is NULL_TELEMETRY
