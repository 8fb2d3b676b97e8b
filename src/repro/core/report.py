"""Textual coverage reports and the unified report envelope.

Three textual report shapes, matching the paper's presentation:

* :func:`format_matrix` — the Table-I association/testcase matrix with
  ``x`` / ``-`` marks, grouped by class;
* :func:`format_summary` — totals, per-class percentages, criteria
  verdicts and the ranked list of missed associations;
* :func:`format_iteration_table` — the Table-II iteration rows
  (tests added vs. coverage growth).

Plus the **report envelope** (:func:`make_envelope`): one wrapper
shape — ``{"schema", "config_hash", "fingerprint", "payload"}`` —
around the three machine-readable report schemas
(``repro-dft-mutation/1``, ``repro-dft-generation/1``,
``repro-dft-history/1``).  The job service returns envelopes verbatim
from ``GET /v1/jobs/{id}/result``, so every job kind has the same
metadata header and a consumer can route on ``schema`` without probing
the payload.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .associations import AssocClass
from .coverage import CoverageResult
from .criteria import detailed_status


def make_envelope(
    payload: Dict[str, Any],
    *,
    config_hash: Optional[str] = None,
    fingerprint: Optional[str] = None,
    schema: Optional[str] = None,
) -> Dict[str, Any]:
    """Wrap a report payload in the unified envelope.

    ``schema`` defaults to the payload's own tag (its ``schema`` key,
    or ``format`` for history records).  The payload is embedded
    verbatim.
    """
    resolved = schema or payload.get("schema") or payload.get("format")
    return {
        "schema": resolved,
        "config_hash": config_hash,
        "fingerprint": fingerprint,
        "payload": payload,
    }


def _pct(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.0f}"


def format_matrix(coverage: CoverageResult, max_rows: Optional[int] = None) -> str:
    """Render the Table-I style association/testcase matrix."""
    names = coverage.testcase_names
    lines: List[str] = []
    header = f"{'Static Pairs':55s} | " + " | ".join(f"{n:>6s}" for n in names)
    rule = "-" * len(header)
    current_class: Optional[AssocClass] = None
    count = 0
    for assoc, marks in coverage.matrix():
        if max_rows is not None and count >= max_rows:
            lines.append(f"... ({coverage.static_total - count} more rows)")
            break
        if assoc.klass is not current_class:
            current_class = assoc.klass
            lines.append(rule)
            lines.append(f"{current_class.value}")
            lines.append(header)
            lines.append(rule)
        row_marks = " | ".join(f"{'x' if m else '-':>6s}" for m in marks)
        lines.append(f"{str(assoc):55s} | {row_marks}")
        count += 1
    lines.append(rule)
    lines.append(
        "TC legend: (x) = data flow pair exercised, (-) = not exercised"
    )
    return "\n".join(lines)


def format_summary(
    coverage: CoverageResult,
    max_missed: int = 20,
    subsumption=None,
) -> str:
    """Render totals, per-class coverage, criteria and guidance.

    ``subsumption`` (a
    :class:`~repro.analysis.subsume.SubsumptionResult`, when given)
    adds the non-subsumed *frontier* counts per class: the reduced set
    of associations whose coverage guarantees the full set.
    """
    lines: List[str] = []
    lines.append(f"Static associations : {coverage.static_total}")
    lines.append(f"Exercised (dynamic) : {coverage.exercised_total}")
    lines.append(f"Overall coverage    : {coverage.overall_percent:.1f}%")
    lines.append("")
    lines.append("Per-class coverage:")
    frontier_counts = subsumption.counts() if subsumption is not None else {}
    for klass, cc in coverage.class_coverage().items():
        row = (
            f"  {klass.value:7s} {cc.covered:4d} / {cc.total:4d}  ({_pct(cc.percent)}%)"
        )
        if klass in frontier_counts:
            front, total = frontier_counts[klass]
            row += f"  [frontier {front}/{total}]"
        lines.append(row)
    if subsumption is not None:
        total = len(subsumption.associations)
        front = len(subsumption.frontier_keys)
        lines.append(
            f"  frontier (non-subsumed targets): {front} of {total} "
            f"associations"
        )
    lines.append("")
    lines.append("Criteria:")
    for status in detailed_status(coverage):
        verdict = "satisfied" if status.satisfied else "NOT satisfied"
        lines.append(
            f"  {str(status.criterion):13s} {verdict:14s} "
            f"[{status.covered}/{status.total}]"
        )
    warnings = coverage.dynamic.use_without_def()
    if warnings:
        lines.append("")
        lines.append("Use-without-def warnings (undefined behaviour):")
        for desc in warnings:
            lines.append(f"  {desc}")
    missed = coverage.missed()
    if missed:
        lines.append("")
        lines.append(
            f"Missed associations ({len(missed)}), ranked by class "
            f"(likeliest-feasible first):"
        )
        for assoc in missed[:max_missed]:
            lines.append(f"  [{assoc.klass.value:6s}] {assoc}")
        if len(missed) > max_missed:
            lines.append(f"  ... ({len(missed) - max_missed} more)")
    return "\n".join(lines)


def format_iteration_table(rows: Sequence["IterationRecord"]) -> str:  # noqa: F821
    """Render Table-II style iteration rows.

    ``rows`` are :class:`repro.core.workflow.IterationRecord` items.
    """
    lines: List[str] = []
    header = (
        f"{'Iter.':>5s} {'Tests':>6s} {'Static#':>8s} {'Dyn#':>6s} "
        f"{'S%':>5s} {'F%':>5s} {'PF%':>5s} {'PW%':>5s}  criteria"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        crits = ",".join(
            str(c) for c, ok in row.criteria.items() if ok and str(c).startswith("all-")
        )
        lines.append(
            f"{row.index:>5d} {row.tests:>6d} {row.static_total:>8d} "
            f"{row.exercised_total:>6d} "
            f"{_pct(row.class_percent.get(AssocClass.STRONG)):>5s} "
            f"{_pct(row.class_percent.get(AssocClass.FIRM)):>5s} "
            f"{_pct(row.class_percent.get(AssocClass.PFIRM)):>5s} "
            f"{_pct(row.class_percent.get(AssocClass.PWEAK)):>5s}  {crits}"
        )
    return "\n".join(lines)
