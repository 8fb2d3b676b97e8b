"""Persistent run history.

Split from :mod:`repro.obs` proper so the telemetry layer stays
import-light; import :mod:`repro.obs.store` explicitly to use the
ledger.  See :mod:`.history` for the cross-run ledger.
"""

from .history import (
    FORMAT as HISTORY_FORMAT,
    RunHistory,
    build_record,
    default_history_dir,
    diff_records,
    format_diff,
    format_history_table,
    format_trend,
    merge_records,
    span_percentiles,
    suite_sha,
    trend_rows,
)

__all__ = [
    "HISTORY_FORMAT",
    "RunHistory",
    "build_record",
    "default_history_dir",
    "diff_records",
    "format_diff",
    "format_history_table",
    "format_trend",
    "merge_records",
    "span_percentiles",
    "suite_sha",
    "trend_rows",
]
