"""Integration: merging ledger coverage across real pipeline runs."""

import json

import pytest

from repro.core import DftConfig, coverage_to_dict, run_dft
from repro.obs.store import RunHistory, merge_records
from repro.systems.sensor import SenseTop, paper_testcases
from repro.testing import TestSuite


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Full, TC1-only and TC2+TC3 sensor runs, each with its ledger
    record (appended to a module-private ledger)."""
    ledger = str(tmp_path_factory.mktemp("ledger"))
    cfg = DftConfig(history_dir=ledger)
    tcs = paper_testcases()
    full = run_dft(lambda: SenseTop(), TestSuite("full", tcs), cfg)
    part1 = run_dft(lambda: SenseTop(), TestSuite("p1", tcs[:1]), cfg)
    part2 = run_dft(lambda: SenseTop(), TestSuite("p2", tcs[1:]), cfg)
    records = {r["system"]: r for r in RunHistory(ledger).records()}
    return (full, records["full"]), records["p1"], records["p2"]


def _record_of(factory, suite, tmp_path):
    run_dft(factory, suite, DftConfig(history_dir=str(tmp_path)))
    return RunHistory(str(tmp_path)).records()[-1]


class TestMergeSemantics:
    def test_merged_partial_runs_equal_full_run(self, runs):
        (full, full_record), part1, part2 = runs
        merged = merge_records([part1, part2])
        assert (len(merged["exercised"]), merged["static"]) == (
            full.coverage.exercised_total,
            full.coverage.static_total,
        )
        assert merged["exercised"] == full_record["coverage"]["exercised"]
        assert merged["runs"] == [part1["run_id"], part2["run_id"]]

    def test_parameter_change_keeps_fingerprint(self, runs, tmp_path):
        """The fingerprint is structural: widening the ADC changes a
        constructor parameter, not the association universe, so merging
        stays legal (the same source lines are being covered)."""
        (_, full_record), _, _ = runs
        fixed = _record_of(
            lambda: SenseTop(adc_bits=10),
            TestSuite("f", paper_testcases()[:1]),
            tmp_path,
        )
        merged = merge_records([full_record, fixed])
        assert merged["universe"] == full_record["coverage"]["universe"]

    def test_structural_change_rejected(self, runs, tmp_path):
        (_, full_record), _, _ = runs
        from repro.systems.buck_boost import BuckBoostTop
        from repro.testing import TestCase
        from repro.tdf import ms

        other = _record_of(
            lambda: BuckBoostTop(),
            TestSuite("bb", [TestCase("t", ms(2), lambda c: None)]),
            tmp_path,
        )
        with pytest.raises(ValueError) as err:
            merge_records([full_record, other])
        message = str(err.value)
        assert "\n" not in message
        assert full_record["coverage"]["universe"] in message
        assert other["coverage"]["universe"] in message


class TestExportOnRealRun:
    def test_export_is_json_and_consistent(self, runs):
        (full, _), _, _ = runs
        data = coverage_to_dict(full.coverage)
        json.dumps(data)
        assert data["totals"]["static"] == full.coverage.static_total
        assert data["totals"]["exercised"] == full.coverage.exercised_total
        # Every association row carries the exercising testcases.
        covered_rows = [a for a in data["associations"] if a["covered_by"]]
        assert len(covered_rows) == full.coverage.exercised_total


class TestCliIntegration:
    def test_cli_json_and_db(self, tmp_path, capsys):
        """``run --json`` prints the export, and the ledger (the coverage
        store) records the same coverage."""
        from repro.cli import main

        assert main(["run", "sensor", "--json", "--history-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cluster"] == "sense_top"
        (record,) = RunHistory(str(tmp_path)).records()
        assert record["coverage"]["universe"] == payload["fingerprint"]
        assert record["coverage"]["totals"] == payload["totals"]
