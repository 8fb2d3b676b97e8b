"""Report stage: schema, criterion join, and canonical kill-matrix bytes."""

import dataclasses
import io
import json

import pytest

from repro.core import run_dft
from repro.mutation import (
    SCHEMA,
    build_report,
    criterion_subsuites,
    format_report,
    kill_matrix_bytes,
    run_mutation,
    write_csv,
)
from repro.mutation.report import CRITERION_ORDER
from repro.testing import TestSuite
from repro.testing.generate import random_cluster_factory, random_suite

SEED = 7


@pytest.fixture(scope="module")
def run():
    return run_mutation(
        "repro.testing.generate:random_cluster_factory",
        "repro.testing.generate:random_suite",
        factory_args=(SEED,),
        suite_args=(SEED,),
        max_mutants=12,
    )


@pytest.fixture(scope="module")
def pipeline():
    suite = TestSuite("random", random_suite(SEED))
    return run_dft(random_cluster_factory(SEED), suite)


@pytest.fixture(scope="module")
def coverage(pipeline):
    return pipeline.coverage


class TestSubsuites:
    def test_suites_nested_weakest_to_strongest(self, coverage):
        suites = criterion_subsuites(coverage)
        previous: list = []
        for criterion, _klass in CRITERION_ORDER:
            names = suites[criterion]
            assert names[: len(previous)] == previous
            previous = names

    def test_suites_draw_from_the_real_suite(self, coverage):
        suites = criterion_subsuites(coverage)
        all_names = set(coverage.testcase_names)
        for names in suites.values():
            assert set(names) <= all_names
            assert len(names) == len(set(names))


class TestFrontierSubsuites:
    """PR-9 tentpole gate: frontier-reduced sub-suites change nothing
    observable — every criterion row scores byte-for-byte the same as
    the full target set, because covering a frontier association covers
    everything it subsumes."""

    def test_frontier_scores_match_full_scores(self, run, pipeline):
        from repro.analysis import analyze_subsumption

        subsumption = analyze_subsumption(pipeline.static)
        full = build_report(run, coverage=pipeline.coverage, system="random")
        reduced = build_report(
            run, coverage=pipeline.coverage, system="random",
            subsumption=subsumption,
        )
        assert full["targets_mode"] == "all"
        assert reduced["targets_mode"] == "frontier"
        full_rows = {r["criterion"]: r for r in full["criteria"]}
        for row in reduced["criteria"]:
            other = full_rows[row["criterion"]]
            assert row["score"] == other["score"], row["criterion"]
            assert row["num_testcases"] <= other["num_testcases"]
        # Scores are rounded the same way, so the serialized rows agree
        # byte-for-byte once the (possibly smaller) suites are dropped.
        strip = lambda rows: json.dumps(
            [{"criterion": r["criterion"], "score": r["score"]} for r in rows],
            sort_keys=True,
        ).encode("ascii")
        assert strip(reduced["criteria"]) == strip(full["criteria"])

    def test_frontier_subsuites_stay_nested(self, pipeline):
        from repro.analysis import analyze_subsumption

        subsumption = analyze_subsumption(pipeline.static)
        suites = criterion_subsuites(
            pipeline.coverage, subsumption.frontier_keys
        )
        previous: list = []
        for criterion, _klass in CRITERION_ORDER:
            names = suites[criterion]
            assert names[: len(previous)] == previous
            previous = names


class TestBuildReport:
    def test_schema_and_counts(self, run):
        payload = build_report(run, system="random")
        assert payload["schema"] == SCHEMA == "repro-dft-mutation/1"
        counts = payload["counts"]
        assert counts["sampled"] == len(payload["mutants"]) == 12
        assert (
            counts["killed"] + counts["survived"] + counts["nonviable"]
            == counts["sampled"]
        )
        assert counts["viable"] == counts["killed"] + counts["survived"]
        assert "criteria" not in payload

    def test_killed_mutants_carry_their_first_kill_site(self, run):
        payload = build_report(run, system="random")
        assert any(m["status"] == "killed" for m in payload["mutants"])
        for m in payload["mutants"]:
            if m["status"] == "killed":
                assert m["killed_at"]["testcase"] == m["killed_by"][0]
                assert "error" in m["killed_at"] or "signal" in m["killed_at"]
            else:
                assert m["killed_at"] is None

    def test_payload_is_json_stable(self, run):
        payload = build_report(run, system="random")
        assert json.loads(json.dumps(payload)) == payload

    def test_criterion_scores_monotone(self, run, coverage):
        payload = build_report(run, coverage=coverage, system="random")
        rows = payload["criteria"]
        assert [r["criterion"] for r in rows] == [
            "all-PWeak", "all-PFirm", "all-Firm", "all-Strong", "full-suite",
        ]
        scores = [r["score"] for r in rows]
        # Nested sub-suites make this structural; the report would
        # falsify the paper's hierarchy if it ever decreased.
        assert scores == sorted(scores)
        assert rows[-1]["score"] == payload["mutation_score"]

    def test_criterion_testcases_nested(self, run, coverage):
        payload = build_report(run, coverage=coverage, system="random")
        rows = payload["criteria"][:-1]
        for earlier, later in zip(rows, rows[1:]):
            assert later["testcases"][: len(earlier["testcases"])] == (
                earlier["testcases"]
            )


class TestKillMatrixBytes:
    def test_bytes_stable_and_ascii(self, run):
        blob = kill_matrix_bytes(run)
        assert blob == kill_matrix_bytes(run)
        rows = json.loads(blob)
        assert len(rows) == len(run.specs)
        assert rows[0][0] == run.specs[0].mutant_id

    def test_bytes_reflect_kill_rows(self, run):
        rows = {mid: kills for mid, kills in json.loads(kill_matrix_bytes(run))}
        for outcome in run.outcomes:
            expected = (
                "nonviable"
                if outcome.status == "nonviable"
                else list(outcome.killed_by)
            )
            assert rows[outcome.spec.mutant_id] == expected

    def test_kill_sites_stay_out_of_the_bytes(self, run):
        unsited = dataclasses.replace(
            run,
            outcomes=[
                dataclasses.replace(o, killed_at=None) for o in run.outcomes
            ],
        )
        assert kill_matrix_bytes(unsited) == kill_matrix_bytes(run)


class TestRenderings:
    def test_text_report_mentions_key_figures(self, run, coverage):
        payload = build_report(run, coverage=coverage, system="random")
        text = format_report(payload)
        assert "mutation analysis of random" in text
        assert "per operator:" in text
        assert "criterion-vs-mutation-score" in text
        assert "all-Strong" in text
        for m in payload["mutants"]:
            if m["status"] == "killed":
                assert f"    {m['id']}: {m['killed_by'][0]}, " in text

    def test_csv_row_per_mutant(self, run):
        payload = build_report(run, system="random")
        buffer = io.StringIO()
        write_csv(payload, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "id,operator,target,status,timed_out,killed_by"
        assert len(lines) == 1 + len(run.specs)
