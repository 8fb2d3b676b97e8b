"""Unit tests for report formatting."""

from repro.analysis.cluster_analysis import StaticAnalysisResult
from repro.core.associations import (
    AssocClass,
    Association,
    Definition,
    SourceLocation,
    VarScope,
)
from repro.core.coverage import CoverageResult
from repro.core.report import format_iteration_table, format_matrix, format_summary
from repro.core.workflow import IterationRecord
from repro.core.criteria import Criterion
from repro.instrument.matching import MatchResult
from repro.instrument.runner import DynamicResult


def _coverage():
    static = StaticAnalysisResult(cluster="top")
    a1 = Association(
        "op_intr", SourceLocation(model="TS", line=13),
        SourceLocation(model="ctrl", line=43), AssocClass.STRONG, VarScope.PORT,
    )
    a2 = Association(
        "tmp", SourceLocation(model="AM", line=34),
        SourceLocation(model="AM", line=38), AssocClass.FIRM, VarScope.LOCAL,
    )
    static.associations = [a1, a2]
    static.definitions = [Definition(a.var, a.definition, a.scope) for a in [a1, a2]]
    dynamic = DynamicResult()
    m1 = MatchResult(testcase="TC1")
    m1.pairs = {a1.key}
    m2 = MatchResult(testcase="TC2")
    m2.pairs = set()
    m2.use_without_def = ["m.ip_ghost"]
    dynamic.per_testcase["TC1"] = m1
    dynamic.per_testcase["TC2"] = m2
    return CoverageResult(static, dynamic)


class TestMatrix:
    def test_contains_tuples_and_marks(self):
        text = format_matrix(_coverage())
        assert "(op_intr, 13, TS, 43, ctrl)" in text
        assert "x" in text and "-" in text

    def test_groups_by_class(self):
        text = format_matrix(_coverage())
        assert text.index("Strong") < text.index("Firm")

    def test_max_rows_truncation(self):
        text = format_matrix(_coverage(), max_rows=1)
        assert "more rows" in text


class TestSummary:
    def test_totals_and_percentages(self):
        text = format_summary(_coverage())
        assert "Static associations : 2" in text
        assert "Exercised (dynamic) : 1" in text
        assert "50.0%" in text

    def test_criteria_section(self):
        text = format_summary(_coverage())
        assert "all-Strong" in text
        assert "all-dataflow" in text
        assert "NOT satisfied" in text

    def test_use_without_def_section(self):
        text = format_summary(_coverage())
        assert "m.ip_ghost" in text

    def test_missed_ranking_shown(self):
        text = format_summary(_coverage())
        assert "Missed associations" in text
        assert "(tmp, 34, AM, 38, AM)" in text

    def test_missed_list_truncated(self):
        text = format_summary(_coverage(), max_missed=0)
        assert "(1 more)" in text


class TestIterationTable:
    def test_rows_and_dash_for_empty_class(self):
        rows = [
            IterationRecord(
                index=0,
                tests=17,
                static_total=573,
                exercised_total=446,
                class_percent={
                    AssocClass.STRONG: 86.0,
                    AssocClass.FIRM: 81.0,
                    AssocClass.PFIRM: None,
                    AssocClass.PWEAK: 67.0,
                },
                criteria={c: False for c in Criterion},
            )
        ]
        text = format_iteration_table(rows)
        assert "573" in text and "446" in text
        assert "86" in text and "-" in text

    def test_satisfied_criteria_listed(self):
        criteria = {c: False for c in Criterion}
        criteria[Criterion.ALL_PWEAK] = True
        rows = [
            IterationRecord(
                index=1, tests=20, static_total=10, exercised_total=9,
                class_percent={k: 100.0 for k in AssocClass},
                criteria=criteria,
            )
        ]
        text = format_iteration_table(rows)
        assert "all-PWeak" in text


class TestEnvelope:
    def _payload(self):
        return {"schema": "repro-dft-mutation/1", "total_mutants": 4}

    def test_wrap_and_read_round_trip(self):
        """The envelope header plus the verbatim payload, unchanged by a
        JSON round trip (how a service client reads it back)."""
        import json

        from repro.core.report import make_envelope

        doc = make_envelope(
            self._payload(), config_hash="abc123", fingerprint="f" * 12
        )
        assert doc == {
            "schema": "repro-dft-mutation/1",
            "config_hash": "abc123",
            "fingerprint": "f" * 12,
            "payload": self._payload(),
        }
        assert json.loads(json.dumps(doc)) == doc

    def test_schema_defaults_from_payload(self):
        from repro.core.report import make_envelope

        assert make_envelope(self._payload())["schema"] == "repro-dft-mutation/1"
        history = {"format": "repro-dft-history/1", "kind": "run"}
        assert make_envelope(history)["schema"] == "repro-dft-history/1"

    def test_explicit_schema_wins(self):
        from repro.core.report import make_envelope

        doc = make_envelope(self._payload(), schema="repro-dft-history/1")
        assert doc["schema"] == "repro-dft-history/1"
