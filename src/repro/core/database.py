"""Coverage persistence and merging.

Real verification campaigns accumulate coverage across many tool runs
(regressions, nightly suites, machines).  :class:`CoverageDatabase`
stores the exercised pair keys per testcase together with a fingerprint
of the static universe, serialises to JSON, and merges databases from
separate runs — refusing to merge results obtained against a different
design (a changed static universe would make pair keys meaningless).

:func:`coverage_to_dict` exports a full :class:`CoverageResult` (static
universe + per-testcase marks + criteria verdicts) for downstream
dashboards/CI.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Set, TYPE_CHECKING, Tuple

from .associations import AssocClass
from .criteria import detailed_status

if TYPE_CHECKING:  # pragma: no cover - typing-only import avoids a cycle
    from ..analysis.cluster_analysis import StaticAnalysisResult
    from .coverage import CoverageResult

PairKey = Tuple[str, str, int, str, int]


def universe_fingerprint(static: "StaticAnalysisResult") -> str:
    """Stable hash of the static association universe."""
    payload = "\n".join(
        "|".join(map(str, a.key)) + "|" + a.klass.value
        for a in sorted(static.associations, key=lambda a: a.key)
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class CoverageDatabase:
    """Accumulated exercised pairs, keyed by testcase name."""

    FORMAT = "repro-coverage-db/1"

    def __init__(self, cluster: str, fingerprint: str) -> None:
        self.cluster = cluster
        self.fingerprint = fingerprint
        self._per_testcase: Dict[str, Set[PairKey]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_coverage(cls, coverage: "CoverageResult") -> "CoverageDatabase":
        """Seed a database from one pipeline run."""
        db = cls(coverage.static.cluster, universe_fingerprint(coverage.static))
        for name, match in coverage.dynamic.per_testcase.items():
            db.record(name, match.pairs)
        return db

    def record(self, testcase: str, pairs: Iterable[PairKey]) -> None:
        """Add (or extend) the exercised pairs of ``testcase``."""
        bucket = self._per_testcase.setdefault(testcase, set())
        bucket.update(tuple(p) for p in pairs)

    # -- queries ----------------------------------------------------------------

    @property
    def testcases(self) -> List[str]:
        """Recorded testcase names, sorted."""
        return sorted(self._per_testcase)

    def pairs_of(self, testcase: str) -> Set[PairKey]:
        """Exercised pairs of one testcase."""
        return set(self._per_testcase.get(testcase, set()))

    def exercised_keys(self) -> Set[PairKey]:
        """Union over all testcases."""
        keys: Set[PairKey] = set()
        for pairs in self._per_testcase.values():
            keys |= pairs
        return keys

    def coverage_against(self, static: "StaticAnalysisResult") -> Tuple[int, int]:
        """``(covered, total)`` against a static universe.

        Raises :class:`ValueError` when the universe fingerprint does
        not match — the recorded keys belong to another design version.
        """
        fp = universe_fingerprint(static)
        if fp != self.fingerprint:
            raise ValueError(
                f"coverage database was recorded against universe "
                f"{self.fingerprint}, not {fp}; re-run the static analysis"
            )
        exercised = self.exercised_keys()
        covered = sum(1 for a in static.associations if a.key in exercised)
        return covered, len(static.associations)

    # -- merging -------------------------------------------------------------------

    def merge(self, other: "CoverageDatabase") -> None:
        """Fold ``other`` into this database (same design required)."""
        if other.fingerprint != self.fingerprint:
            raise ValueError(
                f"cannot merge coverage of universe {other.fingerprint} "
                f"into universe {self.fingerprint}"
            )
        for name, pairs in other._per_testcase.items():
            self.record(name, pairs)

    # -- (de)serialisation ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-ready)."""
        return {
            "format": self.FORMAT,
            "cluster": self.cluster,
            "fingerprint": self.fingerprint,
            "testcases": {
                name: sorted(list(map(list, pairs)))
                for name, pairs in self._per_testcase.items()
            },
        }

    def to_json(self) -> str:
        """JSON text form."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CoverageDatabase":
        """Rebuild from :meth:`to_dict` output."""
        if data.get("format") != cls.FORMAT:
            raise ValueError(f"unsupported coverage-db format: {data.get('format')!r}")
        db = cls(data["cluster"], data["fingerprint"])
        for name, pairs in data["testcases"].items():
            db.record(name, (tuple(p) for p in pairs))
        return db

    @classmethod
    def from_json(cls, text: str) -> "CoverageDatabase":
        """Rebuild from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the JSON form to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "CoverageDatabase":
        """Read a database written by :meth:`save`."""
        with open(path) as fh:
            return cls.from_json(fh.read())


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
