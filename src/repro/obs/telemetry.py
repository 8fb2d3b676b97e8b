"""Structured telemetry: spans and counters for the DFT pipeline.

Two kinds of record, and only two:

* **Spans** — nestable timed regions (name, wall/CPU time, attributes,
  parent) opened with :meth:`Telemetry.span` as context managers.  Span
  trees mirror the paper's Fig. 3 stages (``pipeline`` > ``static`` /
  ``dynamic`` / ``coverage`` > per-testcase / per-simulation work).
  Every duration is a span.
* **Counters** — labelled monotone counts (:class:`MetricsRegistry`):
  periods simulated, engine firings and fallbacks, cache hits and
  misses, and the job-progress counts the service reports.

Telemetry is **disabled by default** and zero-cost when disabled: the
per-thread active instance is a :class:`NullTelemetry` singleton whose
``span()`` / ``counter()`` return shared no-op objects, so the hot
layers pay one attribute check and no allocation.  Enable it for a
region of code with :func:`telemetry_session`::

    from repro.obs import telemetry_session
    from repro.obs.export import write_jsonl

    with telemetry_session() as tel:
        result = run_dft(factory, suite)
    write_jsonl(tel, "run.telemetry.jsonl")

The recorders are intentionally single-threaded (like the TDF kernel);
sharing one :class:`Telemetry` across threads requires external
locking.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing count (events, activations, builds)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class MetricsRegistry:
    """Holds every counter of one telemetry session, keyed by name+labels."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, dict(key[1]))
        return metric

    def counters(self) -> List[Counter]:
        return list(self._counters.values())

    def records(self) -> List[Dict[str, Any]]:
        """Every counter as a plain-dict record.

        The one serialised form: JSONL export and reports read it, and
        parallel workers ship it back for :meth:`merge_raw`.
        """
        return [
            {"type": "metric", "kind": "counter",
             "name": c.name, "labels": c.labels, "value": c.value}
            for c in self._counters.values()
        ]

    def merge_raw(self, records: List[Dict[str, Any]]) -> None:
        """Fold :meth:`records` output from another registry into this one."""
        for rec in records:
            kind = rec["kind"]
            if kind != "counter":
                raise ValueError(f"unknown metric record kind {kind!r}")
            self.counter(rec["name"], **rec.get("labels", {})).inc(rec["value"])


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Span:
    """One timed region; a context manager that closes itself on exit."""

    __slots__ = (
        "telemetry", "span_id", "name", "parent_id", "attributes",
        "start_wall", "end_wall", "start_cpu", "end_cpu",
    )

    def __init__(
        self,
        telemetry: "Telemetry",
        span_id: int,
        name: str,
        parent_id: Optional[int],
        attributes: Dict[str, Any],
    ) -> None:
        self.telemetry = telemetry
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.attributes = attributes
        self.start_wall = time.perf_counter()
        self.start_cpu = time.process_time()
        self.end_wall: Optional[float] = None
        self.end_cpu: Optional[float] = None

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.end()

    def end(self) -> None:
        """Close the span (idempotent)."""
        if self.end_wall is None:
            self.end_wall = time.perf_counter()
            self.end_cpu = time.process_time()
            self.telemetry._on_span_end(self)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    # -- derived timing ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.end_wall is not None

    @property
    def wall(self) -> float:
        """Wall-clock duration in seconds (up to now while still open)."""
        end = self.end_wall if self.end_wall is not None else time.perf_counter()
        return end - self.start_wall

    @property
    def cpu(self) -> float:
        """CPU time consumed in seconds (up to now while still open)."""
        end = self.end_cpu if self.end_cpu is not None else time.process_time()
        return end - self.start_cpu

    def record(self, epoch_wall: float) -> Dict[str, Any]:
        """Plain-dict form; timestamps relative to the session epoch."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts_us": (self.start_wall - epoch_wall) * 1e6,
            "dur_us": self.wall * 1e6,
            "cpu_us": self.cpu * 1e6,
            "attrs": self.attributes,
        }

    def __repr__(self) -> str:
        state = f"{self.wall * 1e3:.3f} ms" if self.closed else "open"
        return f"Span({self.name!r}, {state})"


class Telemetry:
    """A recording telemetry session: span tree + metrics registry."""

    #: Hot layers check this before doing any bookkeeping work.
    enabled = True

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        #: All spans in creation order (open spans included).
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1
        #: perf_counter value all span timestamps are relative to.
        self.epoch_wall = time.perf_counter()
        #: Absolute session start (for humans / file headers).
        self.started_at = time.time()

    # -- spans ------------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Span:
        """Open a child span of the current span; use as a context manager."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self, self._next_id, name, parent, dict(attributes))
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def current_span(self) -> Optional[Span]:
        """Innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def _on_span_end(self, span: Span) -> None:
        # Spans close LIFO in correct usage; tolerate (and repair) an
        # out-of-order end() by popping everything above it too.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()

    def find_spans(self, name: str) -> List[Span]:
        """All spans with exactly this name, in creation order."""
        return [s for s in self.spans if s.name == name]

    def span_names(self) -> List[str]:
        """Distinct span names in first-seen order."""
        seen: List[str] = []
        for span in self.spans:
            if span.name not in seen:
                seen.append(span.name)
        return seen

    # -- export-facing views ---------------------------------------------

    def span_records(self) -> List[Dict[str, Any]]:
        return [s.record(self.epoch_wall) for s in self.spans]

    def to_run(self) -> Dict[str, Any]:
        """The whole session as one plain-dict structure.

        Shape matches what :func:`repro.obs.export.read_jsonl` returns,
        so reporting code works on live sessions and saved files alike.
        """
        return {
            "meta": {"type": "meta", "format": "repro-telemetry", "version": 1,
                     "started_at": self.started_at},
            "spans": self.span_records(),
            "metrics": self.metrics.records(),
        }


# ---------------------------------------------------------------------------
# Disabled mode: shared no-op singletons
# ---------------------------------------------------------------------------


class _NullSpan:
    """No-op span: every operation returns immediately."""

    __slots__ = ()
    name = ""
    attributes: Dict[str, Any] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def end(self) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None

    wall = 0.0
    cpu = 0.0
    closed = True


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_COUNTER = _NullCounter()


class _NullMetricsRegistry:
    __slots__ = ()

    def counter(self, name: str, **labels: Any) -> _NullCounter:
        return _NULL_COUNTER

    def counters(self) -> list:
        return []

    def records(self) -> list:
        return []

    def merge_raw(self, records: list) -> None:
        return None


class NullTelemetry:
    """The disabled-mode telemetry: allocation-free no-ops throughout."""

    enabled = False
    metrics = _NullMetricsRegistry()
    spans: List[Span] = []

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def find_spans(self, name: str) -> list:
        return []

    def span_names(self) -> list:
        return []

    def span_records(self) -> list:
        return []

    def to_run(self) -> Dict[str, Any]:
        return {"meta": {"type": "meta", "format": "repro-telemetry",
                         "version": 1, "started_at": None},
                "spans": [], "metrics": []}


NULL_TELEMETRY = NullTelemetry()

_active = threading.local()


def get_telemetry() -> Any:
    """The currently active telemetry (the no-op singleton by default).

    The active instance is **per-thread**: a session installed in one
    thread (a service worker executing a shard, say) is invisible to —
    and cannot clobber — sessions in other threads.
    """
    return getattr(_active, "value", NULL_TELEMETRY)


def set_telemetry(telemetry: Any) -> Any:
    """Install ``telemetry`` as the calling thread's active instance;
    returns the previous one."""
    previous = getattr(_active, "value", NULL_TELEMETRY)
    _active.value = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextmanager
def telemetry_session(telemetry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Activate a (new or given) :class:`Telemetry` for the ``with`` body.

    Restores the previously active instance on exit, so sessions nest.
    """
    session = telemetry if telemetry is not None else Telemetry()
    previous = set_telemetry(session)
    try:
        yield session
    finally:
        set_telemetry(previous)
