"""Unit tests for the universe fingerprint and the coverage export."""

import json

import pytest

from repro.analysis.cluster_analysis import StaticAnalysisResult
from repro.core import (
    AssocClass,
    CoverageResult,
    Criterion,
    coverage_to_dict,
    universe_fingerprint,
)
from repro.core.associations import Association, Definition, SourceLocation, VarScope
from repro.instrument.matching import MatchResult
from repro.instrument.runner import DynamicResult


def _assoc(var, dl, klass=AssocClass.STRONG):
    return Association(
        var=var,
        definition=SourceLocation(model="m", line=dl),
        use=SourceLocation(model="m", line=dl + 1),
        klass=klass,
        scope=VarScope.LOCAL,
    )


def _static(assocs):
    static = StaticAnalysisResult(cluster="top")
    static.associations = assocs
    static.definitions = [Definition(a.var, a.definition, a.scope) for a in assocs]
    return static


def _coverage(static, covered):
    dynamic = DynamicResult()
    match = MatchResult(testcase="t1")
    match.pairs = set(covered)
    dynamic.per_testcase["t1"] = match
    return CoverageResult(static, dynamic)


@pytest.fixture
def static():
    return _static([_assoc("a", 1), _assoc("b", 3)])


class TestFingerprint:
    def test_stable_across_order(self):
        s1 = _static([_assoc("a", 1), _assoc("b", 3)])
        s2 = _static([_assoc("b", 3), _assoc("a", 1)])
        assert universe_fingerprint(s1) == universe_fingerprint(s2)

    def test_changes_with_universe(self, static):
        other = _static([_assoc("a", 1)])
        assert universe_fingerprint(static) != universe_fingerprint(other)

    def test_changes_with_classification(self):
        s1 = _static([_assoc("a", 1, AssocClass.STRONG)])
        s2 = _static([_assoc("a", 1, AssocClass.FIRM)])
        assert universe_fingerprint(s1) != universe_fingerprint(s2)


class TestExport:
    def test_coverage_to_dict_shape(self, static):
        cov = _coverage(static, {("a", "m", 1, "m", 2)})
        data = coverage_to_dict(cov)
        assert data["totals"] == {"static": 2, "exercised": 1, "percent": 50.0}
        assert data["classes"]["Strong"]["covered"] == 1
        assert data["criteria"]["all-Strong"]["satisfied"] is False
        assert data["criteria"]["all-uses"]["total"] == 2
        by_var = {a["var"]: a for a in data["associations"]}
        assert by_var["a"]["covered_by"] == ["t1"]
        assert by_var["b"]["covered_by"] == []
        json.dumps(data)  # JSON-serialisable end to end


class TestAllUses:
    def test_all_uses_counts_use_sites(self):
        # Two associations sharing one use site.
        a1 = Association(
            "x", SourceLocation(model="m", line=1),
            SourceLocation(model="m", line=9), AssocClass.STRONG, VarScope.LOCAL,
        )
        a2 = Association(
            "x", SourceLocation(model="m", line=3),
            SourceLocation(model="m", line=9), AssocClass.FIRM, VarScope.LOCAL,
        )
        static = _static([a1, a2])
        cov = _coverage(static, {a1.key})
        assert cov.use_sites() == [("x", "m", 9)]
        assert cov.covered_use_sites() == [("x", "m", 9)]
        from repro.core import satisfied

        assert satisfied(Criterion.ALL_USES, cov)
        # all-defs needs both defs covered, all-uses only the shared use.
        assert not satisfied(Criterion.ALL_DEFS, cov)
