"""Observability for the DFT pipeline and TDF kernel.

``repro.obs`` is the measurement substrate behind every performance
claim in this repo: nestable spans, labelled counters, and exporters
for JSON-lines logs, human-readable summaries and Chrome/Perfetto trace
files.

Disabled by default and zero-cost while disabled; see
:mod:`repro.obs.telemetry` for the enablement model and
:mod:`repro.obs.export` for the output formats.
"""

from .telemetry import (
    NULL_TELEMETRY,
    Counter,
    MetricsRegistry,
    NullTelemetry,
    Span,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from .export import (
    chrome_trace_events,
    format_tree,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_trend_csv,
    write_trend_jsonl,
)

__all__ = [
    "NULL_TELEMETRY",
    "Counter",
    "MetricsRegistry",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "chrome_trace_events",
    "format_tree",
    "get_telemetry",
    "read_jsonl",
    "set_telemetry",
    "telemetry_session",
    "write_chrome_trace",
    "write_jsonl",
    "write_trend_csv",
    "write_trend_jsonl",
]
