"""Telemetry exporters: JSON-lines, span-tree summary, Chrome trace.

Three consumers of a recorded :class:`~repro.obs.telemetry.Telemetry`:

* :func:`write_jsonl` / :func:`read_jsonl` — a structured event log,
  one JSON object per line (``meta`` header, then spans, then metrics).
  Round-trips: ``read_jsonl`` returns the same structure
  :meth:`Telemetry.to_run` produces, so the reporting helpers below
  work on live sessions and saved files alike.
* :func:`format_tree` — a human-readable span tree with wall/CPU time
  plus a counter table (the ``repro telemetry-report`` output).
* :func:`write_chrome_trace` — Chrome trace-event JSON loadable in
  ``chrome://tracing`` and https://ui.perfetto.dev (open the file via
  *Open trace file*): spans become complete (``"ph": "X"``) events,
  counters become counter (``"ph": "C"``) samples at the end of the
  run.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Union

PathOrIO = Union[str, IO[str]]


def _open_for(target: PathOrIO, mode: str):
    if isinstance(target, str):
        return open(target, mode), True
    return target, False


# ---------------------------------------------------------------------------
# JSON-lines event log
# ---------------------------------------------------------------------------


def write_jsonl(telemetry: Any, target: PathOrIO) -> None:
    """Write the session as JSON-lines: meta, spans, metrics (one per line)."""
    run = telemetry.to_run() if hasattr(telemetry, "to_run") else telemetry
    stream, owned = _open_for(target, "w")
    try:
        stream.write(json.dumps(run["meta"]) + "\n")
        for record in run["spans"]:
            stream.write(json.dumps(record) + "\n")
        for record in run["metrics"]:
            stream.write(json.dumps(record) + "\n")
    finally:
        if owned:
            stream.close()


def read_jsonl(target: PathOrIO, strict: bool = True) -> Dict[str, Any]:
    """Load a saved JSONL session back into the ``to_run()`` structure.

    With ``strict=False``, lines that are not valid JSON objects or
    carry an unknown ``type`` are skipped instead of raising; the
    number of skipped lines is returned as ``run["skipped_lines"]``
    (present only in non-strict mode; 0 when the file was clean).
    Telemetry files are
    append-streamed by live processes, so a truncated final line or a
    foreign record must not take down reporting.
    """
    stream, owned = _open_for(target, "r")
    try:
        run: Dict[str, Any] = {"meta": {}, "spans": [], "metrics": []}
        skipped = 0
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if strict:
                    raise
                skipped += 1
                continue
            kind = record.get("type") if isinstance(record, dict) else None
            if kind == "meta":
                run["meta"] = record
            elif kind == "span":
                run["spans"].append(record)
            elif kind == "metric":
                run["metrics"].append(record)
            elif strict:
                raise ValueError(f"unknown telemetry record type: {kind!r}")
            else:
                skipped += 1
        if not strict:
            run["skipped_lines"] = skipped
        return run
    finally:
        if owned:
            stream.close()


# ---------------------------------------------------------------------------
# Human-readable summary
# ---------------------------------------------------------------------------


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def format_tree(run: Any, metrics: bool = True) -> str:
    """Render a session (live ``Telemetry`` or loaded run dict) as text."""
    if hasattr(run, "to_run"):
        run = run.to_run()
    lines: List[str] = []

    children: Dict[Any, List[Dict[str, Any]]] = {}
    for span in run["spans"]:
        children.setdefault(span["parent"], []).append(span)

    def emit(span: Dict[str, Any], depth: int) -> None:
        attrs = span.get("attrs") or {}
        attr_text = ""
        if attrs:
            attr_text = "  " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(
            f"{'  ' * depth}{span['name']:<{max(40 - 2 * depth, 8)}s} "
            f"wall={span['dur_us'] / 1e3:10.3f} ms  "
            f"cpu={span['cpu_us'] / 1e3:10.3f} ms{attr_text}"
        )
        for child in children.get(span["id"], []):
            emit(child, depth + 1)

    if run["spans"]:
        lines.append("spans:")
        for root in children.get(None, []):
            emit(root, 1)
    else:
        lines.append("spans: (none recorded)")

    # Counters are the only metric kind; gauge and histogram lines in
    # files written by older versions are skipped.
    records = [r for r in run["metrics"] if r["kind"] == "counter"]
    if metrics and records:
        lines.append("metrics:")
        for record in sorted(
            records, key=lambda r: (r["name"], sorted(r["labels"].items()))
        ):
            label = f"{record['name']}{_format_labels(record['labels'])}"
            lines.append(f"  counter   {label:<58s} {record['value']}")
        # Derived rates: every ``<base>_hits`` / ``<base>_misses``
        # counter pair with identical labels yields a hit-rate line, so
        # cache effectiveness is readable without a calculator (e.g.
        # ``tdf.schedule_cache_hit_rate``).
        counters: Dict[tuple, float] = {
            (r["name"], tuple(sorted(r["labels"].items()))): r["value"]
            for r in records
        }
        derived: List[str] = []
        for (name, labels), hits in sorted(counters.items()):
            if not name.endswith("_hits"):
                continue
            base = name[: -len("_hits")]
            misses = counters.get((base + "_misses", labels), 0)
            total = hits + misses
            if total:
                label = f"{base}_hit_rate{_format_labels(dict(labels))}"
                derived.append(f"  {'rate':<9s} {label:<58s} {hits / total:.4f}")
        if derived:
            lines.append("derived:")
            lines.extend(derived)
    if run.get("skipped_lines"):
        lines.append(f"skipped: {run['skipped_lines']} malformed line(s) ignored")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Cross-run coverage-trend export (see repro.obs.store.history)
# ---------------------------------------------------------------------------

#: Column order for trend exports; matches ``history.trend_rows`` keys.
TREND_FIELDS = (
    "run_id",
    "recorded_at",
    "kind",
    "system",
    "fingerprint",
    "config_hash",
    "suite_sha",
    "tests",
    "class",
    "total",
    "covered",
    "percent",
)


def write_trend_jsonl(rows: List[Dict[str, Any]], target: PathOrIO) -> None:
    """Write coverage-trend rows as JSON-lines, one row per line."""
    stream, owned = _open_for(target, "w")
    try:
        for row in rows:
            stream.write(json.dumps({k: row.get(k) for k in TREND_FIELDS}) + "\n")
    finally:
        if owned:
            stream.close()


def write_trend_csv(rows: List[Dict[str, Any]], target: PathOrIO) -> None:
    """Write coverage-trend rows as CSV with a header row."""
    import csv

    stream, owned = _open_for(target, "w")
    try:
        writer = csv.DictWriter(stream, fieldnames=list(TREND_FIELDS),
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if owned:
            stream.close()


# ---------------------------------------------------------------------------
# Chrome trace-event JSON (chrome://tracing, Perfetto)
# ---------------------------------------------------------------------------


def chrome_trace_events(run: Any) -> List[Dict[str, Any]]:
    """The session as a list of Chrome trace-event dicts."""
    if hasattr(run, "to_run"):
        run = run.to_run()
    events: List[Dict[str, Any]] = [
        {
            "ph": "M", "pid": 1, "tid": 1, "name": "process_name",
            "args": {"name": "repro-dft"},
        }
    ]
    end_ts = 0.0
    for span in run["spans"]:
        events.append({
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "name": span["name"],
            "cat": "repro",
            "ts": span["ts_us"],
            "dur": span["dur_us"],
            "args": span.get("attrs") or {},
        })
        end_ts = max(end_ts, span["ts_us"] + span["dur_us"])
    for record in run["metrics"]:
        if record["kind"] != "counter":
            continue
        name = f"{record['name']}{_format_labels(record['labels'])}"
        events.append({
            "ph": "C", "pid": 1, "tid": 1, "name": name, "cat": "repro",
            "ts": end_ts, "args": {"value": record["value"]},
        })
    return events


def write_chrome_trace(telemetry: Any, target: PathOrIO) -> None:
    """Write the session as a Chrome/Perfetto trace-event JSON file."""
    payload = {
        "traceEvents": chrome_trace_events(telemetry),
        "displayTimeUnit": "ms",
    }
    stream, owned = _open_for(target, "w")
    try:
        json.dump(payload, stream)
    finally:
        if owned:
            stream.close()
