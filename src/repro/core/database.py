"""Coverage fingerprinting and export.

:func:`universe_fingerprint` hashes the static association universe:
two runs may only be compared or merged when their universes match (a
changed universe makes pair keys name other source lines).  The run
history ledger (:mod:`repro.obs.store.history`) is the coverage store:
each record carries this fingerprint plus the exercised association
keys, and :func:`~repro.obs.store.history.merge_records` unions them
across runs.

:func:`coverage_totals` gives the per-class counts shared by the export
and the ledger record; :func:`coverage_to_dict` exports a full
:class:`CoverageResult` (static universe + per-testcase marks +
criteria verdicts) for downstream dashboards/CI.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, TYPE_CHECKING

from .criteria import detailed_status

if TYPE_CHECKING:  # pragma: no cover - typing-only import avoids a cycle
    from ..analysis.cluster_analysis import StaticAnalysisResult
    from .coverage import CoverageResult


def universe_fingerprint(static: "StaticAnalysisResult") -> str:
    """Stable hash of the static association universe."""
    payload = "\n".join(
        "|".join(map(str, a.key)) + "|" + a.klass.value
        for a in sorted(static.associations, key=lambda a: a.key)
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def coverage_totals(coverage: "CoverageResult") -> Dict[str, Any]:
    """The ``totals`` and per-class ``classes`` counts of one coverage
    result, shared by the JSON export and the history record."""
    return {
        "totals": {
            "static": coverage.static_total,
            "exercised": coverage.exercised_total,
            "percent": round(coverage.overall_percent, 2),
        },
        "classes": {
            klass.value: {
                "total": cc.total,
                "covered": cc.covered,
                "percent": None if cc.percent is None else round(cc.percent, 2),
            }
            for klass, cc in coverage.class_coverage().items()
        },
    }


def coverage_to_dict(coverage: "CoverageResult") -> Dict[str, Any]:
    """Full machine-readable export of one coverage result."""
    return {
        "cluster": coverage.static.cluster,
        "fingerprint": universe_fingerprint(coverage.static),
        **coverage_totals(coverage),
        "criteria": {
            str(status.criterion): {
                "satisfied": status.satisfied,
                "covered": status.covered,
                "total": status.total,
            }
            for status in detailed_status(coverage)
        },
        "use_without_def": coverage.dynamic.use_without_def(),
        "associations": [
            {
                "var": a.var,
                "def": {"model": a.definition.model, "line": a.definition.line},
                "use": {"model": a.use.model, "line": a.use.line},
                "class": a.klass.value,
                "scope": a.scope.value,
                "covered_by": coverage.testcases_covering(a),
            }
            for a in coverage.associations
        ],
    }
