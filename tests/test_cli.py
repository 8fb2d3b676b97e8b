"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.systems.registry import SYSTEMS


class TestList:
    def test_lists_systems(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sensor" in out
        assert "window_lifter" in out
        assert "buck_boost" in out
        assert "3 testcases" in out


class TestStatic:
    def test_sensor_static_report(self, capsys):
        assert main(["static", "sensor"]) == 0
        out = capsys.readouterr().out
        assert "cluster: sense_top" in out
        assert "PFirm=2" in out
        assert "PWeak=1" in out
        assert "[Strong" in out

    def test_buck_boost_reports_undriven_port(self, capsys):
        assert main(["static", "buck_boost"]) == 0
        out = capsys.readouterr().out
        assert "limiter.ip_trim" in out

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["static", "nonexistent"])


class TestRun:
    def test_sensor_run_summary(self, capsys):
        assert main(["run", "sensor"]) == 0
        out = capsys.readouterr().out
        assert "Static associations" in out
        assert "Per-class coverage" in out
        assert "all-PWeak" in out

    def test_run_with_matrix(self, capsys):
        assert main(["run", "sensor", "--matrix"]) == 0
        out = capsys.readouterr().out
        assert "TC1" in out and "TC2" in out and "TC3" in out
        assert "data flow pair exercised" in out

    def test_run_frontier_targets_summary(self, capsys):
        assert main(["run", "sensor", "--targets", "frontier"]) == 0
        out = capsys.readouterr().out
        assert "frontier (non-subsumed targets):" in out
        assert "[frontier" in out


class TestArgParsing:
    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_campaign_restricted_to_case_studies(self):
        with pytest.raises(SystemExit):
            main(["campaign", "sensor"])

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "sensor", "--engine", "jit"])


class TestEngineFlag:
    def test_run_accepts_each_engine(self, capsys):
        outputs = {}
        for engine in ("interp", "block", "auto"):
            for workers in ("1", "2"):
                assert main(["run", "sensor", "--json", "--engine", engine,
                             "--workers", workers]) == 0
                outputs[engine, workers] = capsys.readouterr().out
        # Bit-identical results: the JSON report cannot differ.
        assert len(set(outputs.values())) == 1, sorted(outputs)


class TestMutate:
    ARGS = ["mutate", "random", "--cluster-seed", "7",
            "--max-mutants", "8", "--seed", "0"]

    def test_text_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "mutation analysis of random" in out
        assert "criterion-vs-mutation-score" in out

    def test_json_report_schema(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-dft-mutation/1"
        assert payload["counts"]["sampled"] == 8
        assert payload["counts"]["killed"] >= 1
        assert [row["criterion"] for row in payload["criteria"]][-1] == (
            "full-suite"
        )

    def test_output_and_csv_files(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        assert main(self.ARGS + ["--no-criteria", "--output", str(out_json),
                                 "--csv", str(out_csv)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["schema"] == "repro-dft-mutation/1"
        assert "criteria" not in payload
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 1 + payload["counts"]["sampled"]

    def test_operator_restriction(self, capsys):
        assert main(self.ARGS + ["--json", "--operators", "gain", "sdl"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["operators"]) == {"gain", "sdl"}
        assert all(
            m["operator"] in {"gain", "sdl"} for m in payload["mutants"]
        )


class TestErrorPaths:
    """Every operator error exits 1 with a one-line message, no traceback."""

    def _fails_cleanly(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-dft: error:")
        assert "Traceback" not in err
        return err

    def test_unknown_mutation_operator(self, capsys):
        err = self._fails_cleanly(
            capsys, ["mutate", "random", "--operators", "bogus"]
        )
        assert "bogus" in err and "available" in err

    def test_unwritable_cache_dir(self, capsys):
        err = self._fails_cleanly(
            capsys, ["run", "sensor", "--cache-dir", "/proc/nonexistent/dir"]
        )
        assert "--cache-dir" in err

    def test_cache_dir_that_is_a_file(self, tmp_path, capsys):
        bad = tmp_path / "occupied"
        bad.write_text("not a directory")
        err = self._fails_cleanly(
            capsys, ["run", "sensor", "--cache-dir", str(bad)]
        )
        assert "--cache-dir" in err

    def test_malformed_suite_ref(self, capsys):
        err = self._fails_cleanly(
            capsys,
            ["mutate", "sensor", "--suite-ref", "not-a-ref", "--max-mutants", "1"],
        )
        assert "not-a-ref" in err

    def test_unimportable_suite_ref(self, capsys):
        err = self._fails_cleanly(
            capsys,
            ["mutate", "sensor", "--suite-ref", "repro.nosuch:thing",
             "--max-mutants", "1"],
        )
        assert "repro.nosuch" in err

    def test_negative_max_missed(self, capsys):
        err = self._fails_cleanly(capsys, ["run", "sensor", "--max-missed", "-3"])
        assert "--max-missed" in err

    def test_unknown_engine_exits_via_argparse(self):
        # argparse owns --engine validation: usage error, exit code 2.
        with pytest.raises(SystemExit) as exc:
            main(["mutate", "random", "--engine", "jit"])
        assert exc.value.code == 2


class TestTelemetryFlags:
    def test_run_writes_jsonl_and_trace_events(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        trace = tmp_path / "run.trace.json"
        assert main([
            "run", "sensor", "--telemetry", str(jsonl),
            "--trace-events", str(trace),
        ]) == 0
        lines = [l for l in jsonl.read_text().splitlines() if l.strip()]
        assert len(lines) > 1
        records = [json.loads(l) for l in lines]
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"pipeline", "static", "dynamic", "coverage"} <= names
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])

    def test_static_accepts_telemetry_flag(self, tmp_path, capsys):
        jsonl = tmp_path / "static.jsonl"
        assert main(["static", "sensor", "--telemetry", str(jsonl)]) == 0
        records = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert any(
            r["type"] == "metric"
            and r["name"] in ("analysis.cache_hits", "analysis.cache_misses")
            for r in records
        )

    def test_run_without_flags_records_nothing_globally(self, capsys):
        from repro.obs import NULL_TELEMETRY, get_telemetry

        assert main(["run", "sensor"]) == 0
        assert get_telemetry() is NULL_TELEMETRY

    def test_telemetry_report_pretty_prints(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        assert main(["run", "sensor", "--telemetry", str(jsonl)]) == 0
        capsys.readouterr()
        assert main(["telemetry-report", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "pipeline" in out
        assert "metrics:" in out
        assert "tdf.periods" in out

    def test_telemetry_report_missing_file_is_readable_error(self, capsys):
        assert main(["telemetry-report", "/nonexistent/run.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-dft: error:")

    def test_telemetry_report_wrong_format_is_readable_error(self, tmp_path, capsys):
        bogus = tmp_path / "not-telemetry.json"
        bogus.write_text('{"traceEvents": []}\n')
        assert main(["telemetry-report", str(bogus)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-dft: error:")
        assert "unknown telemetry record type" in err


class TestImportFailures:
    def test_broken_factory_import_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setitem(SYSTEMS, "sensor", dataclasses.replace(
            SYSTEMS["sensor"], factory_ref="systemc_ams.sensor:SenseTop"
        ))
        assert main(["run", "sensor"]) == 1
        err = capsys.readouterr().err
        assert "repro-dft: error: cannot import target system" in err
        assert "systemc_ams" in err
        assert "Traceback" not in err

    def test_broken_suite_import_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setitem(SYSTEMS, "sensor", dataclasses.replace(
            SYSTEMS["sensor"], base_suite_ref="matplotlib.suites:sensor"
        ))
        assert main(["static", "sensor"]) == 0  # static doesn't need the suite
        assert main(["run", "sensor"]) == 1
        assert "cannot import" in capsys.readouterr().err


class TestGenerate:
    ARGS = ["generate", "sensor", "--seed", "0", "--budget-simulations", "25"]

    def test_text_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "coverage-guided generation for sensor" in out
        assert "targets:" in out
        assert "accepted testcase(s)" in out

    def test_json_report_schema(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-dft-generation/1"
        assert payload["counts"]["closed"] >= 1
        assert payload["counts"]["simulations"] <= 25
        assert payload["seed"] == 0
        assert payload["strategy"] == "mutation"

    def test_output_file(self, tmp_path, capsys):
        out_json = tmp_path / "generation.json"
        assert main(self.ARGS + ["--output", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["schema"] == "repro-dft-generation/1"
        assert capsys.readouterr().err.strip().endswith(str(out_json))

    def test_deterministic_json_across_worker_counts(self, capsys):
        payloads = []
        for workers in ("1", "2"):
            assert main(self.ARGS + ["--json", "--workers", workers]) == 0
            payload = json.loads(capsys.readouterr().out)
            del payload["throughput"]  # wall-clock timing may differ
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_random_strategy_flag(self, capsys):
        assert main(self.ARGS + ["--json", "--strategy", "random"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "random"

    def test_unknown_strategy_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--strategy", "simulated-annealing"])
        assert exc.value.code == 2

    def test_riscv_has_no_space_yet(self):
        # The riscv platform has no bundled stimulus space: argparse
        # rejects it at the subcommand level rather than mid-run.
        with pytest.raises(SystemExit):
            main(["generate", "riscv_platform"])


class TestOutputPathValidation:
    def test_bad_telemetry_path_fails_before_running(self, capsys):
        assert main([
            "run", "sensor", "--telemetry", "/proc/nonexistent/t.jsonl",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-dft: error: --telemetry")
        assert "Traceback" not in err

    def test_bad_trace_events_path_fails_before_running(self, capsys):
        assert main([
            "run", "sensor", "--trace-events", "/proc/nonexistent/t.json",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-dft: error: --trace-events")

    def test_directory_as_telemetry_path_rejected(self, tmp_path, capsys):
        assert main(["run", "sensor", "--telemetry", str(tmp_path)]) == 1
        assert "not a writable file path" in capsys.readouterr().err

    def test_parent_directory_is_created(self, tmp_path, capsys):
        target = tmp_path / "new" / "dir" / "run.jsonl"
        assert main(["run", "sensor", "--telemetry", str(target)]) == 0
        assert target.is_file()


class TestTelemetryReportTolerance:
    def test_malformed_lines_skipped_with_warning(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        assert main(["run", "sensor", "--telemetry", str(jsonl)]) == 0
        with open(jsonl, "a") as handle:
            handle.write("{truncated json\n")
            handle.write('{"type": "mystery"}\n')
        capsys.readouterr()
        assert main(["telemetry-report", str(jsonl)]) == 0
        captured = capsys.readouterr()
        assert "skipped 2 malformed line(s)" in captured.err
        assert "skipped: 2 malformed line(s) ignored" in captured.out
        assert "pipeline" in captured.out

    def test_older_gauge_and_histogram_lines_are_read(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        assert main(["run", "sensor", "--telemetry", str(jsonl)]) == 0
        with open(jsonl, "a") as handle:
            handle.write(json.dumps({
                "type": "metric", "kind": "gauge", "name": "cli.auto_workers",
                "labels": {"reason": "single_cpu"}, "value": 1,
            }) + "\n")
            handle.write(json.dumps({
                "type": "metric", "kind": "histogram",
                "name": "tdf.period_seconds", "labels": {},
                "summary": {"count": 1, "sum": 0.5},
            }) + "\n")
        capsys.readouterr()
        assert main(["telemetry-report", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "tdf.periods" in out
        assert "cli.auto_workers" not in out and "period_seconds" not in out


class TestHistoryCli:
    def _run_twice(self, tmp_path):
        hist = tmp_path / "ledger"
        for _ in range(2):
            assert main([
                "run", "sensor", "--history-dir", str(hist),
            ]) == 0
        return hist

    def test_list_shows_both_runs(self, tmp_path, capsys):
        hist = self._run_twice(tmp_path)
        capsys.readouterr()
        assert main(["history", "list", "--history-dir", str(hist)]) == 0
        out = capsys.readouterr().out
        assert out.count("run ") >= 2 or out.count("sensor") >= 2

    def test_diff_defaults_to_latest_two_and_is_identical(self, tmp_path, capsys):
        hist = self._run_twice(tmp_path)
        capsys.readouterr()
        assert main(["history", "diff", "--history-dir", str(hist)]) == 0
        assert "history diff: identical" in capsys.readouterr().out

    def test_diff_by_run_id_prefix(self, tmp_path, capsys):
        from repro.obs.store import RunHistory

        hist = self._run_twice(tmp_path)
        ids = [r["run_id"] for r in RunHistory(str(hist)).records()]
        capsys.readouterr()
        assert main([
            "history", "diff", ids[0][:8], ids[1][:8],
            "--history-dir", str(hist),
        ]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_needs_two_records(self, tmp_path, capsys):
        assert main([
            "history", "diff", "--history-dir", str(tmp_path / "empty"),
        ]) == 1
        assert "needs two recorded runs" in capsys.readouterr().err

    def test_trend_table_and_csv_export(self, tmp_path, capsys):
        hist = self._run_twice(tmp_path)
        export = tmp_path / "trend.csv"
        capsys.readouterr()
        assert main([
            "history", "trend", "--history-dir", str(hist),
            "--export", str(export),
        ]) == 0
        out = capsys.readouterr().out
        assert "overall" in out and "Strong" in out
        header = export.read_text().splitlines()[0]
        assert header.startswith("run_id,")

    def test_history_json_output(self, tmp_path, capsys):
        hist = self._run_twice(tmp_path)
        capsys.readouterr()
        assert main([
            "history", "list", "--history-dir", str(hist), "--json",
        ]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert records[0]["system"] == "sensor"

    def test_limit_zero_lists_no_records(self, tmp_path, capsys):
        hist = self._run_twice(tmp_path)
        capsys.readouterr()
        assert main([
            "history", "list", "--history-dir", str(hist), "--json",
            "--limit", "0",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_negative_limit_is_one_line_error(self, tmp_path, capsys):
        hist = self._run_twice(tmp_path)
        capsys.readouterr()
        assert main([
            "history", "list", "--history-dir", str(hist), "--limit", "-1",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-dft: error:") and "limit" in err
        assert err.count("\n") == 1

    def test_no_history_writes_nothing(self, tmp_path, capsys, monkeypatch):
        import repro.obs.store as store

        target = tmp_path / "default-ledger"
        monkeypatch.setattr(
            store, "default_history_dir", lambda cache_dir=None: str(target)
        )
        assert main(["run", "sensor", "--no-history"]) == 0
        assert not target.exists()

    def test_default_ledger_used_without_flags(self, tmp_path, capsys, monkeypatch):
        import repro.obs.store as store

        target = tmp_path / "default-ledger"
        monkeypatch.setattr(
            store, "default_history_dir", lambda cache_dir=None: str(target)
        )
        assert main(["run", "sensor"]) == 0
        from repro.obs.store import RunHistory

        assert len(RunHistory(str(target)).records()) == 1

    def test_unwritable_history_dir_is_one_line_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file in the way")
        assert main([
            "run", "sensor", "--history-dir", str(blocker),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-dft: error: --history-dir")
        assert "Traceback" not in err


class TestProbeStoreCli:
    def test_columnar_run_matches_memory_run(self, capsys):
        # The columnar probe store is gone (the probe pairs as it runs),
        # so its flags are a one-line usage error.
        with pytest.raises(SystemExit) as exc:
            main(["run", "sensor", "--probe-store", "columnar"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --probe-store columnar" in err

    def test_unknown_store_kind_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "sensor", "--probe-store", "parquet"])
        assert exc.value.code == 2


class TestMatcherCli:
    def test_unknown_matcher_rejected(self, capsys):
        # ``--matcher`` is a removed flag: the probe pairs as it runs.
        with pytest.raises(SystemExit) as exc:
            main(["run", "sensor", "--matcher", "scan"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --matcher scan" in err


class TestRemovedBenchCli:
    # The legacy ``bench`` subcommand and ``campaign --no-result-cache``
    # are gone; ``perfbench/run.py`` is the one benchmark.
    def test_no_result_cache_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "buck_boost", "--no-result-cache"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --no-result-cache" in err

    def test_bench_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "invalid choice: 'bench'" in err


class TestConfigFlag:
    def test_run_with_toml_config(self, tmp_path, capsys):
        cfg = tmp_path / "dft.toml"
        cfg.write_text('engine = "interp"\nwarn = false\n')
        assert main(["run", "sensor", "--config", str(cfg)]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_bad_config_field_is_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "dft.json"
        cfg.write_text('{"bogus": 1}')
        assert main(["run", "sensor", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "config file" in err and "bogus" in err

    @pytest.mark.parametrize("doc,field", [
        ('{"workers": "two"}', "workers"),
        ('{"tolerance": "tiny"}', "tolerance"),
        ('{"seed": "x"}', "seed"),
    ])
    def test_ill_typed_config_value_is_one_line_error(
        self, tmp_path, capsys, doc, field
    ):
        cfg = tmp_path / "dft.json"
        cfg.write_text(doc)
        assert main(["run", "sensor", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "config file" in err and f"{field} must be" in err

    @pytest.mark.parametrize("argv", [
        ["run", "sensor", "--workers", "0"],
        ["run", "sensor", "--workers", "-2"],
        ["generate", "sensor", "--workers", "0"],
        ["mutate", "buck_boost", "--workers", "0"],
    ])
    def test_workers_below_one_rejected_everywhere(self, capsys, argv):
        assert main(argv + ["--no-history"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "workers must be None or an int >= 1" in err

    def test_missing_config_file_is_clean_exit(self, tmp_path, capsys):
        assert main(["run", "sensor", "--config", str(tmp_path / "no.toml")]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_flags_layer_over_file_over_defaults(self, tmp_path):
        import argparse

        from repro.cli import _config_base
        from repro.core import DftConfig

        cfg = tmp_path / "dft.toml"
        cfg.write_text('seed = 9\nbudget_simulations = 50\n')
        args = argparse.Namespace(command="generate", config=str(cfg))
        base = _config_base(args)
        # File overrides the generate default (200), keeps others.
        assert base.budget_simulations == 50
        assert base.seed == 9
        # An explicit flag still wins over the file.
        flagged = DftConfig.from_args(
            argparse.Namespace(seed=1), base=base
        )
        assert flagged.seed == 1
        assert flagged.budget_simulations == 50

    def test_command_defaults_apply_without_file(self):
        import argparse

        from repro.cli import _config_base

        base = _config_base(argparse.Namespace(command="generate", config=None))
        assert base.budget_simulations == 200


class TestSubmitOptions:
    def test_values_json_decoded(self):
        from repro.cli import _parse_submit_options

        options = _parse_submit_options(
            ["iterations=3", "strategy=random", "flag=true"]
        )
        assert options == {"iterations": 3, "strategy": "random", "flag": True}

    def test_bad_pair_rejected(self):
        import pytest

        from repro.cli import _parse_submit_options

        with pytest.raises(ValueError, match="KEY=VALUE"):
            _parse_submit_options(["no-equals-sign"])

    def test_worker_and_serve_subcommands_parse(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(
            ["serve", "--port", "9000", "--worker", "7001", "--worker",
             "host:7002", "--state-dir", "/tmp/s"]
        )
        assert args.worker == ["7001", "host:7002"]
        assert args.port == 9000
        worker = parser.parse_args(["worker", "--port", "0"])
        assert worker.command == "worker"
        submit = parser.parse_args(
            ["submit", "campaign", "buck_boost", "--option", "iterations=2"]
        )
        assert submit.kind == "campaign"
        assert submit.server == "127.0.0.1:8437"
