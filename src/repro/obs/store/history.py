"""Persistent run-history database with cross-run diff/trend queries.

Every pipeline entry point (``run_dft``, :class:`IterativeCampaign`,
``run_mutation``, ``generate_suite``) appends one canonical JSON record
per run to an append-only JSONL ledger under the cache directory
(``<cache-dir>/history/history.jsonl``).  A record is keyed by the
static fingerprint, the :class:`~repro.core.config.DftConfig` hash and
the sha1 of the suite's testcase names, and carries the coverage
outcome (per-class totals, criteria verdicts, exercised association
keys), kind-specific payloads (mutation kill matrix, generation
acceptances) and wall-time percentiles pulled from the telemetry span
tree.

The ledger is the project's one coverage store: :func:`merge_records`
unions the exercised association keys of runs recorded against the
same static universe (regressions, nightly suites, machines) and
refuses to merge across universes.  :func:`diff_records` compares two
runs field by field (a regression diff), :func:`trend_rows` flattens the
history into one row per run per association class (the trend table /
exporter input), and the ``repro-dft history`` CLI renders both.  Warm-start
hooks in mutation and generation use :meth:`RunHistory.latest` to seed
from the most recent matching record.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

FORMAT = "repro-dft-history/1"
FILENAME = "history.jsonl"

#: Association classes in report order (values of ``AssocClass``; kept
#: literal so this module does not import core at load time — core
#: imports obs).
CLASS_ORDER = ("Strong", "Firm", "PFirm", "PWeak")


def default_history_dir(cache_dir: Optional[str] = None) -> str:
    """History directory under ``cache_dir`` (or the default cache)."""
    if cache_dir is None:
        from ...analysis.cache import DEFAULT_CACHE_DIR

        cache_dir = DEFAULT_CACHE_DIR
    return os.path.join(os.path.expanduser(cache_dir), "history")


def suite_sha(names: Iterable[str]) -> str:
    """Stable sha1 of the suite's testcase names, in suite order."""
    return hashlib.sha1("\n".join(names).encode()).hexdigest()[:12]


def _percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(pct / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def span_percentiles(telemetry: Any) -> Dict[str, Dict[str, float]]:
    """Wall-time percentiles of the span tree, grouped by base name.

    Spans like ``dynamic.testcase[t1]`` fold into the ``dynamic.testcase``
    group (everything before the first ``[``), giving per-phase count /
    p50 / p90 / p99 / max distributions.
    """
    groups: Dict[str, List[float]] = {}
    for span in getattr(telemetry, "spans", None) or []:
        base = span.name.split("[", 1)[0]
        groups.setdefault(base, []).append(span.wall)
    out: Dict[str, Dict[str, float]] = {}
    for name in sorted(groups):
        values = sorted(groups[name])
        out[name] = {
            "count": len(values),
            "p50": round(_percentile(values, 50), 6),
            "p90": round(_percentile(values, 90), 6),
            "p99": round(_percentile(values, 99), 6),
            "max": round(values[-1], 6),
        }
    return out


def coverage_summary(coverage: Any) -> Dict[str, Any]:
    """The coverage slice of a history record (compact, diffable)."""
    from ...core.criteria import evaluate_all
    from ...core.database import coverage_totals, universe_fingerprint

    return {
        "universe": universe_fingerprint(coverage.static),
        **coverage_totals(coverage),
        "criteria": {
            str(criterion): satisfied
            for criterion, satisfied in evaluate_all(coverage).items()
        },
        "exercised": sorted(
            "|".join(map(str, assoc.key))
            for assoc in coverage.associations
            if coverage.is_covered(assoc)
        ),
    }


def build_record(
    kind: str,
    *,
    system: Optional[str],
    fingerprint: Optional[str],
    config_hash: str,
    suite_names: Sequence[str],
    coverage: Any = None,
    telemetry: Any = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one canonical (not yet stamped) history record."""
    record: Dict[str, Any] = {
        "format": FORMAT,
        "kind": kind,
        "system": system,
        "fingerprint": fingerprint,
        "config_hash": config_hash,
        "suite_sha": suite_sha(suite_names),
        "tests": len(suite_names),
        "testcases": list(suite_names),
    }
    if coverage is not None:
        record["coverage"] = coverage_summary(coverage)
    if telemetry is not None:
        timings = span_percentiles(telemetry)
        if timings:
            record["timings"] = timings
    if extra:
        record.update(extra)
    return record


def append_line(path: str, line: str, fsync: bool = False) -> None:
    """Append ``line`` plus a newline to the JSON-lines file at ``path``.

    A crash mid-append can leave an unterminated last line; it is
    terminated first, so the new record gets a line of its own instead
    of being read back as part of the malformed fragment.
    """
    with open(path, "ab+") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell():
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        handle.write(line.encode("utf-8") + b"\n")
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())


class RunHistory:
    """Append-only JSONL ledger of run records under one directory."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.expanduser(directory)
        self.path = os.path.join(self.directory, FILENAME)

    # -- writing ------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> Optional[str]:
        """Stamp ``record`` (run_id + recorded_at) and append it.

        The run id is a content hash over the record *including* the
        timestamp, so re-running an identical configuration still gets
        a distinct ledger entry.  Returns the run id, or ``None`` when
        the ledger cannot be written: history is a side channel, and an
        unwritable ledger never fails the run that records into it (the
        CLI validates an explicit ``--history-dir`` up front).
        """
        stamped = dict(record)
        stamped.setdefault("format", FORMAT)
        stamped["recorded_at"] = round(time.time(), 3)
        try:
            os.makedirs(self.directory, exist_ok=True)
            # The ledger offset participates in the id (but is not
            # stored): two identical runs appended within the same
            # timestamp tick still get distinct ids.
            offset = os.path.getsize(self.path) if os.path.isfile(self.path) else 0
            payload = json.dumps(stamped, sort_keys=True, default=str)
            stamped["run_id"] = hashlib.sha1(
                f"{offset}|{payload}".encode()
            ).hexdigest()[:12]
            append_line(self.path, json.dumps(stamped, sort_keys=True, default=str))
        except OSError:
            return None
        return stamped["run_id"]

    # -- reading ------------------------------------------------------------

    def records(
        self,
        system: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """All matching records, oldest first (malformed lines skipped);
        ``limit`` keeps only the most recent ``limit`` of them."""
        if limit is not None and limit < 0:
            raise ValueError(f"history limit must be >= 0, got {limit}")
        if not os.path.isfile(self.path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict) or record.get("format") != FORMAT:
                    continue
                if system is not None and record.get("system") != system:
                    continue
                if kind is not None and record.get("kind") != kind:
                    continue
                out.append(record)
        if limit is not None:
            out = out[max(len(out) - limit, 0):]
        return out

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Record by (unambiguous prefix of a) run id, or ``None``."""
        matches = [
            record
            for record in self.records()
            if str(record.get("run_id", "")).startswith(run_id)
        ]
        if not matches:
            return None
        if len(matches) > 1 and any(r.get("run_id") != matches[0].get("run_id") for r in matches):
            raise ValueError(f"run id prefix {run_id!r} is ambiguous")
        return matches[-1]

    def latest(
        self,
        kind: Optional[str] = None,
        system: Optional[str] = None,
        fingerprint: Optional[str] = None,
        config_hash: Optional[str] = None,
        suite: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """Most recent record matching every given key, or ``None``."""
        for record in reversed(self.records(system=system, kind=kind)):
            if fingerprint is not None and record.get("fingerprint") != fingerprint:
                continue
            if config_hash is not None and record.get("config_hash") != config_hash:
                continue
            if suite is not None and record.get("suite_sha") != suite:
                continue
            return record
        return None


# -- cross-run queries ------------------------------------------------------


def merge_records(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Union the exercised association keys of ``records``.

    Every record must carry a coverage slice recorded against one
    static universe: pair keys of another universe name other source
    lines, so merging across universes raises :class:`ValueError`, as
    does a record without coverage (a mutation record).
    """
    universe: Optional[str] = None
    static = 0
    runs: List[str] = []
    exercised: Set[str] = set()
    for record in records:
        coverage = record.get("coverage")
        if not coverage:
            raise ValueError(
                f"record {record.get('run_id', '?')} ({record.get('kind')}) "
                f"has no coverage to merge"
            )
        if universe is None:
            universe = coverage["universe"]
            static = coverage["totals"]["static"]
        elif coverage["universe"] != universe:
            raise ValueError(
                f"cannot merge coverage of universe {coverage['universe']} "
                f"into universe {universe}"
            )
        runs.append(record.get("run_id"))
        exercised.update(coverage["exercised"])
    return {
        "universe": universe,
        "runs": runs,
        "static": static,
        "exercised": sorted(exercised),
    }


def _preview(items: Sequence[str]) -> str:
    """The first five of ``items``, comma-joined (``...`` if more)."""
    return ", ".join(items[:5]) + ("..." if len(items) > 5 else "")


def diff_records(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Field-by-field comparison of two history records.

    Identity metadata (run id, timestamps, wall-time percentiles) is
    excluded: two runs of the same configuration on the same design
    diff as identical, which is exactly what the CI smoke job asserts.
    """
    changes: List[str] = []

    def check(label: str, va: Any, vb: Any) -> None:
        if va != vb:
            changes.append(f"{label}: {va!r} -> {vb!r}")

    for field in ("kind", "system", "fingerprint", "config_hash", "suite_sha", "tests"):
        check(field, a.get(field), b.get(field))

    cov_a, cov_b = a.get("coverage") or {}, b.get("coverage") or {}
    check("universe", cov_a.get("universe"), cov_b.get("universe"))
    tot_a, tot_b = cov_a.get("totals") or {}, cov_b.get("totals") or {}
    for field in ("static", "exercised", "percent"):
        check(f"coverage.{field}", tot_a.get(field), tot_b.get(field))
    cls_a, cls_b = cov_a.get("classes") or {}, cov_b.get("classes") or {}
    for klass in CLASS_ORDER:
        check(f"class.{klass}", cls_a.get(klass), cls_b.get(klass))
    crit_a, crit_b = cov_a.get("criteria") or {}, cov_b.get("criteria") or {}
    for criterion in sorted(set(crit_a) | set(crit_b)):
        check(f"criterion.{criterion}", crit_a.get(criterion), crit_b.get(criterion))
    ex_a, ex_b = set(cov_a.get("exercised") or ()), set(cov_b.get("exercised") or ())
    added, removed = sorted(ex_b - ex_a), sorted(ex_a - ex_b)
    if added:
        changes.append(f"exercised.added: {len(added)} ({_preview(added)})")
    if removed:
        changes.append(f"exercised.removed: {len(removed)} ({_preview(removed)})")

    mut_a, mut_b = a.get("mutation") or {}, b.get("mutation") or {}
    for field in ("score", "killed", "total"):
        check(f"mutation.{field}", mut_a.get(field), mut_b.get(field))
    # Verdicts only: ``seconds`` and ``timed_out`` are timing.
    km_a, km_b = mut_a.get("kill_matrix") or {}, mut_b.get("kill_matrix") or {}
    changed = sorted(
        mutant
        for mutant in set(km_a) | set(km_b)
        if any(
            (km_a.get(mutant) or {}).get(key) != (km_b.get(mutant) or {}).get(key)
            for key in ("status", "killed_at")
        )
    )
    if changed:
        changes.append(f"mutation.kill_matrix: {len(changed)} changed ({_preview(changed)})")
    gen_a, gen_b = a.get("generation") or {}, b.get("generation") or {}
    for field in ("closed", "accepted", "simulations"):
        check(f"generation.{field}", gen_a.get(field), gen_b.get(field))

    return {"identical": not changes, "changes": changes}


def trend_rows(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Flatten records into one row per run per association class.

    Rows carry an ``overall`` class alongside the four paper classes,
    ready for the JSONL/CSV trend exporters and the trend table.
    """
    rows: List[Dict[str, Any]] = []
    for record in records:
        coverage = record.get("coverage") or {}
        base = {
            "run_id": record.get("run_id"),
            "recorded_at": record.get("recorded_at"),
            "kind": record.get("kind"),
            "system": record.get("system"),
            "fingerprint": record.get("fingerprint"),
            "config_hash": record.get("config_hash"),
            "suite_sha": record.get("suite_sha"),
            "tests": record.get("tests"),
        }
        totals = coverage.get("totals") or {}
        rows.append(dict(base, **{
            "class": "overall",
            "total": totals.get("static"),
            "covered": totals.get("exercised"),
            "percent": totals.get("percent"),
        }))
        classes = coverage.get("classes") or {}
        for klass in CLASS_ORDER:
            cc = classes.get(klass) or {}
            rows.append(dict(base, **{
                "class": klass,
                "total": cc.get("total"),
                "covered": cc.get("covered"),
                "percent": cc.get("percent"),
            }))
    return rows


# -- terminal rendering -----------------------------------------------------


def _stamp(record: Dict[str, Any]) -> str:
    recorded = record.get("recorded_at")
    if not isinstance(recorded, (int, float)):
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(recorded))


def format_history_table(records: Sequence[Dict[str, Any]]) -> str:
    """The ``history list`` view: one line per record, oldest first."""
    if not records:
        return "history: no records"
    lines = [
        f"{'run_id':<12}  {'recorded':<19}  {'kind':<10}  "
        f"{'system':<14}  {'tests':>5}  {'coverage':>8}"
    ]
    for record in records:
        totals = (record.get("coverage") or {}).get("totals") or {}
        percent = totals.get("percent")
        lines.append(
            f"{record.get('run_id', '-'):<12}  {_stamp(record):<19}  "
            f"{record.get('kind', '-'):<10}  {str(record.get('system') or '-'):<14}  "
            f"{record.get('tests', 0):>5}  "
            f"{('%.1f%%' % percent) if percent is not None else '-':>8}"
        )
    return "\n".join(lines)


def format_diff(diff: Dict[str, Any]) -> str:
    """Human rendering of a :func:`diff_records` result."""
    if diff["identical"]:
        return "history diff: identical"
    lines = [f"history diff: {len(diff['changes'])} change(s)"]
    lines.extend(f"  {change}" for change in diff["changes"])
    return "\n".join(lines)


def format_trend(rows: Sequence[Dict[str, Any]]) -> str:
    """The trend table: one line per run, one column per class."""
    if not rows:
        return "history: no records"
    by_run: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for row in rows:
        run = str(row.get("run_id"))
        if run not in by_run:
            by_run[run] = {"meta": row}
            order.append(run)
        by_run[run][row["class"]] = row
    columns = ("overall",) + CLASS_ORDER
    header = f"{'run_id':<12}  {'recorded':<19}  {'tests':>5}"
    for name in columns:
        header += f"  {name:>8}"
    lines = [header]
    for run in order:
        bucket = by_run[run]
        meta = bucket["meta"]
        line = (
            f"{run:<12}  "
            f"{_stamp({'recorded_at': meta.get('recorded_at')}):<19}  "
            f"{meta.get('tests', 0):>5}"
        )
        for name in columns:
            percent = (bucket.get(name) or {}).get("percent")
            line += f"  {('%.1f' % percent) if percent is not None else '-':>8}"
        lines.append(line)
    return "\n".join(lines)
