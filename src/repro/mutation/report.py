"""Kill-matrix reporting: the criterion-vs-mutation-score join.

The point of the mutation subsystem is an *empirical* check of the
paper's criterion hierarchy: a testsuite that satisfies a stronger
data-flow criterion should detect at least as many seeded faults as
one satisfying a weaker criterion.  The join works as follows:

1.  run the ordinary DFT pipeline on the unmutated system to get the
    per-testcase coverage matrix;
2.  build one greedy minimal sub-suite per criterion, *cumulatively*
    from the weakest criterion (all-PWeak) to the strongest
    (all-Strong) — each sub-suite extends the previous one, so the
    suites are nested exactly like the criteria;
3.  score every sub-suite against the kill matrix (no re-execution:
    :meth:`~repro.mutation.executor.MutationRun.score_for` reads the
    per-testcase kill rows).

Nesting makes the expected monotonicity structural: a superset suite
can only kill more.  What remains empirical — and what the report
shows — is *how much* each criterion step buys.

The JSON payload carries a ``schema`` tag (``repro-dft-mutation/1``)
so CI jobs can assert on a stable shape, and
:func:`kill_matrix_bytes` produces the canonical byte string used to
check that serial/parallel and interp/block runs agree exactly.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from ..core.associations import AssocClass
from ..core.coverage import CoverageResult
from ..core.criteria import Criterion, satisfied
from ..tdf.time import ScaTime

#: JSON payload schema tag; bump on any incompatible shape change.
SCHEMA = "repro-dft-mutation/1"

#: Weakest to strongest: the cumulative sub-suite construction order.
CRITERION_ORDER: List[Tuple[Criterion, AssocClass]] = [
    (Criterion.ALL_PWEAK, AssocClass.PWEAK),
    (Criterion.ALL_PFIRM, AssocClass.PFIRM),
    (Criterion.ALL_FIRM, AssocClass.FIRM),
    (Criterion.ALL_STRONG, AssocClass.STRONG),
]


def criterion_subsuites(
    coverage: CoverageResult,
    frontier_keys: Optional[frozenset] = None,
) -> Dict[Criterion, List[str]]:
    """Nested greedy sub-suites, one per class criterion.

    For each criterion (weakest first) the targets are the
    associations of its class that the *full* suite covers — a target
    no testcase exercises cannot constrain suite selection.  Testcases
    are added greedily (most new targets first; suite order breaks
    ties) on top of the previous criterion's selection, so the
    returned suites are nested: ``all-PWeak ⊆ all-PFirm ⊆ all-Firm ⊆
    all-Strong``.  An empty class contributes no targets and therefore
    no testcases (the window lifter has no PFirm associations).

    ``frontier_keys`` (from
    :func:`repro.analysis.subsume.analyze_subsumption`) restricts each
    criterion's target set to the non-subsumed associations: any
    testcase covering a frontier association necessarily covers the
    ones it subsumes, so the reduced selection still satisfies the full
    criterion.
    """
    names = coverage.testcase_names
    tc_keys = {
        name: set(coverage.dynamic.per_testcase[name].pairs) for name in names
    }
    chosen: List[str] = []
    covered: set = set()
    result: Dict[Criterion, List[str]] = {}
    for criterion, klass in CRITERION_ORDER:
        targets = {
            a.key
            for a in coverage.associations
            if a.klass is klass
            and coverage.is_covered(a)
            and (frontier_keys is None or a.key in frontier_keys)
        }
        while targets - covered:
            best: Optional[str] = None
            best_gain = 0
            for name in names:
                if name in chosen:
                    continue
                gain = len((targets - covered) & tc_keys[name])
                if gain > best_gain:
                    best, best_gain = name, gain
            if best is None:  # pragma: no cover - targets are coverable
                break
            chosen.append(best)
            covered |= tc_keys[best]
        result[criterion] = list(chosen)
    return result


def build_report(
    run,
    coverage: Optional[CoverageResult] = None,
    system: str = "",
    subsumption=None,
) -> dict:
    """The machine-readable mutation report (schema ``repro-dft-mutation/1``).

    ``run`` is a :class:`~repro.mutation.executor.MutationRun`;
    ``coverage`` (when given) adds the per-criterion rows of the
    criterion-vs-score join.  ``subsumption`` (a
    :class:`~repro.analysis.subsume.SubsumptionResult`, when given)
    scores the criterion rows over frontier-reduced sub-suites instead
    of the full covered target sets.
    """
    payload = {
        "schema": SCHEMA,
        "system": system,
        "targets_mode": "frontier" if subsumption is not None else "all",
        "seed": run.seed,
        "engine": run.engine,
        "workers": run.workers,
        "tolerance": run.tolerance,
        "operators": list(run.operators),
        "testcases": list(run.testcase_names),
        "oracle_signals": list(run.oracle_signals),
        "counts": {
            "generated": run.generated,
            "sampled": len(run.specs),
            "viable": run.viable,
            "killed": run.killed,
            "survived": run.survived,
            "nonviable": run.nonviable,
            "timeouts": run.timeouts,
        },
        "mutation_score": round(run.mutation_score, 6),
        "mutants": [
            {
                "id": o.spec.mutant_id,
                "operator": o.spec.operator,
                "target": o.spec.target,
                "detail": o.spec.detail,
                "status": o.status,
                "killed_by": list(o.killed_by),
                "timed_out": o.timed_out,
                "killed_at": o.killed_at.to_dict() if o.killed_at else None,
                "nonviable_reason": o.nonviable_reason,
            }
            for o in run.outcomes
        ],
    }
    if coverage is not None:
        frontier_keys = (
            subsumption.frontier_keys if subsumption is not None else None
        )
        subsuites = criterion_subsuites(coverage, frontier_keys)
        rows = []
        for criterion, _klass in CRITERION_ORDER:
            names = subsuites[criterion]
            rows.append(
                {
                    "criterion": str(criterion),
                    "satisfied": satisfied(criterion, coverage),
                    "testcases": names,
                    "num_testcases": len(names),
                    "score": round(run.score_for(names), 6),
                }
            )
        rows.append(
            {
                "criterion": "full-suite",
                "satisfied": True,
                "testcases": list(run.testcase_names),
                "num_testcases": len(run.testcase_names),
                "score": round(run.mutation_score, 6),
            }
        )
        payload["criteria"] = rows
    return payload


def criteria_report(
    run,
    system: str = "",
    *,
    factory_args: Sequence = (),
    suite_args: Sequence = (),
    targets: str = "all",
) -> dict:
    """:func:`build_report` joined with the criteria of the same suite.

    One coverage run of the *unmutated* system, on the suite the kill
    matrix was computed on (``run.suite_ref`` with ``suite_args``),
    feeds the criterion-vs-score join; sub-suites are then scored from
    the kill matrix without re-running any mutant.  ``targets=
    "frontier"`` adds the subsumption pass.  The ``mutate`` command and
    a ``mutate`` job build their payload here (:mod:`repro.jobs`).
    """
    from ..core import DftConfig, run_dft
    from ..exec.refs import resolve_ref
    from ..exec.task import resolve_factory
    from ..testing.testcase import TestSuite

    if targets not in ("all", "frontier"):
        raise ValueError(f"targets must be 'all' or 'frontier', got {targets!r}")
    factory = resolve_factory(run.factory_ref, factory_args)
    suite = TestSuite(system, list(resolve_ref(run.suite_ref)(*suite_args)))
    pipeline = run_dft(factory, suite, DftConfig(engine=run.engine))
    subsumption = None
    if targets == "frontier":
        from ..analysis import analyze_subsumption

        subsumption = analyze_subsumption(pipeline.static)
    return build_report(
        run, coverage=pipeline.coverage, system=system, subsumption=subsumption
    )


def kill_matrix_bytes(run) -> bytes:
    """Canonical bytes of the kill matrix.

    One ``[mutant_id, [killing testcases...]]`` row per sampled mutant
    in enumeration order, with nonviable mutants tagged explicitly.
    Timing never enters, so serial/parallel and interp/block runs of
    the same seed must produce identical bytes.
    """
    rows = [
        [o.spec.mutant_id, "nonviable" if o.status == "nonviable" else list(o.killed_by)]
        for o in run.outcomes
    ]
    return json.dumps(rows, separators=(",", ":"), sort_keys=True).encode("ascii")


def _format_site(site: Optional[dict]) -> str:
    """One kill site (a ``killed_at`` payload entry) as text."""
    if not site:
        return "-"
    if "error" in site:
        return f"{site['testcase']}, raised {site['error']}"
    time_fs = site["time_fs"]
    when = (
        "delay priming"
        if time_fs is None
        else str(ScaTime.from_femtoseconds(time_fs))
    )
    return f"{site['testcase']}, {site['signal']} diverged at {when}"


def format_report(payload: dict) -> str:
    """Human-readable text rendering of a report payload."""
    lines: List[str] = []
    counts = payload["counts"]
    lines.append(
        f"mutation analysis of {payload['system'] or payload.get('factory', '?')} "
        f"(seed {payload['seed']}, engine {payload['engine']})"
    )
    lines.append(
        f"  mutants: {counts['generated']} generated, {counts['sampled']} sampled, "
        f"{counts['viable']} viable, {counts['nonviable']} nonviable"
    )
    lines.append(
        f"  killed {counts['killed']} / survived {counts['survived']}"
        + (f" / {counts['timeouts']} over budget" if counts["timeouts"] else "")
    )
    lines.append(f"  mutation score (full suite): {100.0 * payload['mutation_score']:.1f}%")
    by_op: Dict[str, List[dict]] = {}
    for m in payload["mutants"]:
        by_op.setdefault(m["operator"], []).append(m)
    lines.append("")
    lines.append("  per operator:")
    for op in payload["operators"]:
        ms = by_op.get(op, [])
        viable = [m for m in ms if m["status"] != "nonviable"]
        killed = sum(1 for m in viable if m["status"] == "killed")
        pct = f"{100.0 * killed / len(viable):5.1f}%" if viable else "    -"
        lines.append(
            f"    {op:6s} {len(ms):4d} sampled  {len(viable):4d} viable  "
            f"{killed:4d} killed  {pct}"
        )
    if "criteria" in payload:
        lines.append("")
        lines.append("  criterion-vs-mutation-score (cumulative greedy sub-suites):")
        lines.append("    criterion     satisfied  testcases  score")
        for row in payload["criteria"]:
            lines.append(
                f"    {row['criterion']:13s} {'yes' if row['satisfied'] else 'no ':9s} "
                f"{row['num_testcases']:9d}  {100.0 * row['score']:5.1f}%"
            )
    sections = (
        ("killed", "killed mutants ({}), first kill",
         lambda m: _format_site(m.get("killed_at"))),
        ("nonviable", "nonviable mutants ({})",
         lambda m: m.get("nonviable_reason") or "-"),
        ("survived", "surviving mutants ({})", lambda m: m["detail"]),
    )
    for status, header, describe in sections:
        listed = [m for m in payload["mutants"] if m["status"] == status]
        if listed:
            lines += ["", f"  {header.format(len(listed))}:"]
            lines += [f"    {m['id']}: {describe(m)}" for m in listed[:20]]
            if len(listed) > 20:
                lines.append(f"    ... and {len(listed) - 20} more")
    return "\n".join(lines)


def write_csv(payload: dict, stream: TextIO) -> None:
    """One CSV row per sampled mutant (RFC-4180 via :mod:`csv`)."""
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["id", "operator", "target", "status", "timed_out", "killed_by"])
    for m in payload["mutants"]:
        writer.writerow(
            [
                m["id"],
                m["operator"],
                m["target"],
                m["status"],
                int(m["timed_out"]),
                "|".join(m["killed_by"]),
            ]
        )
