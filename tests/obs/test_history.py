"""Run-history ledger: records, queries, diffs, trends, warm-start keys."""

import json
import os

import pytest

from repro.core import DftConfig, run_dft, universe_fingerprint
from repro.obs.store import (
    HISTORY_FORMAT,
    RunHistory,
    build_record,
    default_history_dir,
    diff_records,
    format_diff,
    format_history_table,
    format_trend,
    merge_records,
    suite_sha,
    trend_rows,
)
from repro.obs.export import write_trend_csv, write_trend_jsonl
from repro.testing import TestSuite
from repro.testing.generate import build_random_cluster, random_suite


def _tiny_record(percent=50.0, exercised=("a|1|m|2|m",), **over):
    record = {
        "kind": "run",
        "system": "sys",
        "fingerprint": "f" * 16,
        "config_hash": "c" * 12,
        "suite_sha": suite_sha(["t1", "t2"]),
        "tests": 2,
        "coverage": {
            "universe": "u" * 16,
            "totals": {"static": 4, "exercised": 2, "percent": percent},
            "classes": {
                "Strong": {"total": 3, "covered": 1, "percent": 33.33},
                "Firm": {"total": 1, "covered": 1, "percent": 100.0},
            },
            "criteria": {"all-Strong": False},
            "exercised": list(exercised),
        },
    }
    record.update(over)
    return record


def test_append_stamps_and_reads_back(tmp_path):
    history = RunHistory(str(tmp_path))
    run_id = history.append(_tiny_record())
    assert len(run_id) == 12
    records = history.records()
    assert len(records) == 1
    assert records[0]["run_id"] == run_id
    assert records[0]["format"] == HISTORY_FORMAT
    assert isinstance(records[0]["recorded_at"], float)


def test_records_filters_and_limit(tmp_path):
    history = RunHistory(str(tmp_path))
    history.append(_tiny_record(system="a"))
    history.append(_tiny_record(system="b"))
    history.append(_tiny_record(system="a", kind="mutation"))
    assert len(history.records()) == 3
    assert len(history.records(system="a")) == 2
    assert len(history.records(kind="mutation")) == 1
    assert len(history.records(limit=2)) == 2
    assert history.records(limit=2)[-1]["kind"] == "mutation"
    assert history.records(limit=0) == []
    assert len(history.records(limit=5)) == 3


def test_negative_limit_raises(tmp_path):
    history = RunHistory(str(tmp_path))
    history.append(_tiny_record())
    with pytest.raises(ValueError, match="limit must be >= 0"):
        history.records(limit=-1)


def test_records_skips_malformed_lines(tmp_path):
    history = RunHistory(str(tmp_path))
    history.append(_tiny_record())
    with open(history.path, "a") as handle:
        handle.write("not json\n")
        handle.write('{"format": "something-else/9"}\n')
        handle.write("[1, 2, 3]\n")
    assert len(history.records()) == 1


def test_append_after_torn_tail_survives(tmp_path):
    history = RunHistory(str(tmp_path))
    with open(history.path, "w") as handle:
        handle.write('{"format": "repro-dft-hist')  # crash mid-append
    run_id = history.append(_tiny_record())
    records = history.records()
    assert [r["run_id"] for r in records] == [run_id]


def test_get_by_prefix(tmp_path):
    history = RunHistory(str(tmp_path))
    run_id = history.append(_tiny_record())
    assert history.get(run_id)["run_id"] == run_id
    assert history.get(run_id[:6])["run_id"] == run_id
    assert history.get("nope") is None


def test_latest_matches_all_keys(tmp_path):
    history = RunHistory(str(tmp_path))
    history.append(_tiny_record(config_hash="old0ld0ld0ld"))
    run_id = history.append(_tiny_record())
    assert history.latest(kind="run", system="sys")["run_id"] == run_id
    assert history.latest(config_hash="old0ld0ld0ld")["run_id"] != run_id
    assert history.latest(fingerprint="missing") is None
    assert history.latest(suite=suite_sha(["t1", "t2"]))["run_id"] == run_id


def test_diff_identical_and_changed():
    a, b = _tiny_record(), _tiny_record()
    diff = diff_records(a, b)
    assert diff["identical"] and not diff["changes"]
    assert format_diff(diff) == "history diff: identical"

    c = _tiny_record(percent=75.0, exercised=("a|1|m|2|m", "b|3|m|4|m"))
    diff = diff_records(a, c)
    assert not diff["identical"]
    text = format_diff(diff)
    assert "coverage.percent" in text
    assert "exercised.added: 1" in text


def test_diff_ignores_identity_metadata(tmp_path):
    history = RunHistory(str(tmp_path))
    history.append(_tiny_record())
    history.append(_tiny_record())
    first, second = history.records()
    assert first["run_id"] != second["run_id"]
    assert diff_records(first, second)["identical"]


def _mutation_record(**kill_matrix):
    """A mutation record: 1 of 2 mutants killed, whichever the
    ``kill_matrix`` entries say."""
    entries = {
        mutant: {
            "status": status,
            "killed_by": ["t1"] if status == "killed" else [],
            "timed_out": False,
            "seconds": 0.5,
            "killed_at": (
                {"testcase": "t1", "signal": "out", "time_fs": 10}
                if status == "killed" else None
            ),
            "nonviable_reason": None,
        }
        for mutant, status in kill_matrix.items()
    }
    record = _tiny_record(kind="mutation")
    del record["coverage"]
    record["mutation"] = {
        "score": 0.5, "killed": 1, "total": 2, "kill_matrix": entries,
    }
    return record


def test_diff_reports_changed_kills_with_equal_counts():
    a = _mutation_record(m1="killed", m2="survived")
    b = _mutation_record(m1="survived", m2="killed")
    diff = diff_records(a, b)
    assert diff["changes"] == ["mutation.kill_matrix: 2 changed (m1, m2)"]
    assert "history diff: 1 change(s)" in format_diff(diff)


def test_diff_compares_kill_site_not_timing():
    a = _mutation_record(m1="killed", m2="survived")
    b = _mutation_record(m1="killed", m2="survived")
    b["mutation"]["kill_matrix"]["m1"].update(seconds=9.0, timed_out=True)
    assert diff_records(a, b)["identical"]
    b["mutation"]["kill_matrix"]["m1"]["killed_at"]["time_fs"] = 20
    assert diff_records(a, b)["changes"] == [
        "mutation.kill_matrix: 1 changed (m1)"
    ]


def test_merge_records_unions_exercised_keys(tmp_path):
    history = RunHistory(str(tmp_path))
    first = history.append(_tiny_record(exercised=("b|3|m|4|m",)))
    second = history.append(_tiny_record(exercised=("a|1|m|2|m", "b|3|m|4|m")))
    merged = merge_records(history.records())
    assert merged == {
        "universe": "u" * 16,
        "runs": [first, second],
        "static": 4,
        "exercised": ["a|1|m|2|m", "b|3|m|4|m"],
    }


def test_merge_records_refuses_different_universes():
    a = _tiny_record()
    b = _tiny_record()
    b["coverage"] = dict(b["coverage"], universe="v" * 16)
    with pytest.raises(ValueError, match="cannot merge") as err:
        merge_records([a, b])
    message = str(err.value)
    assert "\n" not in message
    assert "u" * 16 in message and "v" * 16 in message


def test_merge_records_refuses_a_record_without_coverage():
    with pytest.raises(ValueError, match="no coverage to merge"):
        merge_records([_tiny_record(), _mutation_record(m1="killed")])


def test_merge_records_counts_a_run_against_its_universe(tmp_path):
    factory = lambda: build_random_cluster(3)
    suite = TestSuite("rand3", random_suite(3)[:2])
    result = run_dft(factory, suite, DftConfig(history_dir=str(tmp_path)))
    merged = merge_records(RunHistory(str(tmp_path)).records())
    assert merged["static"] == result.coverage.static_total
    assert len(merged["exercised"]) == result.coverage.exercised_total
    assert merged["universe"] == universe_fingerprint(result.static)


def test_trend_rows_and_exports(tmp_path):
    history = RunHistory(str(tmp_path))
    history.append(_tiny_record())
    rows = trend_rows(history.records())
    # one overall row + one row per paper class
    assert [row["class"] for row in rows] == [
        "overall", "Strong", "Firm", "PFirm", "PWeak"
    ]
    assert rows[0]["percent"] == 50.0
    assert rows[1]["covered"] == 1
    table = format_trend(rows)
    assert "overall" in table and "Strong" in table

    jsonl = tmp_path / "trend.jsonl"
    write_trend_jsonl(rows, str(jsonl))
    lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
    assert len(lines) == 5 and lines[0]["class"] == "overall"

    csv_path = tmp_path / "trend.csv"
    write_trend_csv(rows, str(csv_path))
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("run_id,recorded_at,kind,system")
    assert len(text) == 6


def test_format_history_table_empty_and_filled(tmp_path):
    history = RunHistory(str(tmp_path))
    assert format_history_table(history.records()) == "history: no records"
    history.append(_tiny_record())
    table = format_history_table(history.records())
    assert "sys" in table and "50.0%" in table


def test_default_history_dir_under_cache():
    assert default_history_dir("/tmp/some-cache").endswith(
        os.path.join("some-cache", "history")
    )


def test_run_dft_appends_one_canonical_record(tmp_path):
    factory = lambda: build_random_cluster(3)
    suite = TestSuite("rand3", random_suite(3)[:2])
    cfg = DftConfig(history_dir=str(tmp_path))
    result = run_dft(factory, suite, cfg)
    result2 = run_dft(factory, suite, cfg)

    history = RunHistory(str(tmp_path))
    records = history.records(kind="run")
    assert len(records) == 2
    record = records[-1]
    assert record["system"] == "rand3"
    assert record["fingerprint"] == result.static.fingerprint
    assert record["config_hash"] == cfg.config_hash()
    assert record["suite_sha"] == suite_sha([tc.name for tc in suite])
    assert record["coverage"]["totals"]["exercised"] == (
        result.coverage.exercised_total
    )
    assert "pipeline" in record["timings"]
    # Re-running the identical configuration diffs as identical.
    assert diff_records(records[0], records[1])["identical"]


def test_history_write_failure_is_best_effort(tmp_path):
    """An unwritable ledger must never fail the analysis run."""
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the history dir should go")
    factory = lambda: build_random_cluster(3)
    suite = TestSuite("rand3", random_suite(3)[:1])
    result = run_dft(factory, suite, DftConfig(history_dir=str(blocker)))
    assert result.coverage.static_total > 0
    assert RunHistory(str(blocker)).append(_tiny_record()) is None


def test_campaign_records_one_entry_with_trajectory(tmp_path):
    from repro.core.workflow import IterativeCampaign
    from repro.testing.generate import random_suite as rsuite

    testcases = rsuite(5)
    campaign = IterativeCampaign(
        lambda: build_random_cluster(5),
        testcases[:1],
        name="rand5",
        config=DftConfig(history_dir=str(tmp_path)),
    )
    campaign.add_iteration(testcases[1:3])
    records = campaign.run()
    assert len(records) == 2

    history = RunHistory(str(tmp_path))
    entries = history.records()
    # Exactly one ledger entry for the whole campaign — the inner
    # pipeline runs must not each add a "run" record.
    assert [e["kind"] for e in entries] == ["campaign"]
    trajectory = entries[0]["campaign"]["trajectory"]
    assert len(trajectory) == 2
    assert trajectory[0]["tests"] == 1
    assert trajectory[1]["tests"] == 3


def test_config_hash_tracks_outcome_knobs_only():
    base = DftConfig()
    assert base.config_hash() == DftConfig(workers=8).config_hash()
    assert base.config_hash() == DftConfig(history_dir="/x").config_hash()
    assert base.config_hash() != DftConfig(engine="interp").config_hash()
    assert base.config_hash() != DftConfig(seed=9).config_hash()
