"""Tests for the unified run configuration (repro.core.config)."""

import argparse
import dataclasses

import pytest

from repro import DftConfig
from repro.exec import ProcessExecutor, SerialExecutor


class TestDefaults:
    def test_frozen(self):
        cfg = DftConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.engine = "block"

    def test_replace_returns_new_instance(self):
        cfg = DftConfig()
        other = cfg.replace(engine="block", seed=7)
        assert (other.engine, other.seed) == ("block", 7)
        assert (cfg.engine, cfg.seed) == ("auto", 0)

    def test_defaults(self):
        cfg = DftConfig()
        assert cfg.engine == "auto"
        assert cfg.workers == 1
        assert cfg.static_cache is True
        assert cfg.budget_seconds is None
        assert cfg.budget_simulations is None


class TestFromArgs:
    def test_reads_present_attributes_only(self):
        args = argparse.Namespace(engine="block", seed=5)
        cfg = DftConfig.from_args(args)
        assert cfg.engine == "block"
        assert cfg.seed == 5
        assert cfg.workers == 1  # absent on args: dataclass default

    def test_cache_negation_flags(self):
        args = argparse.Namespace(no_static_cache=True)
        cfg = DftConfig.from_args(args)
        assert cfg.static_cache is False

    def test_overrides_win(self):
        args = argparse.Namespace(engine="block")
        cfg = DftConfig.from_args(args, engine="interp", workers=3)
        assert cfg.engine == "interp"
        assert cfg.workers == 3


class TestResolvedWorkers:
    def test_explicit_workers_win(self):
        assert DftConfig(workers=3).resolved_workers(suite_len=100) == 3
        assert DftConfig(workers=1).resolved_workers(suite_len=100) == 1
        assert DftConfig(workers=4).resolved_workers(suite_len=2) == 4

    def test_auto_single_cpu_is_serial(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert DftConfig(workers=None).resolved_workers(suite_len=10) == 1
        assert DftConfig(workers=None).resolved_workers(suite_len=100) == 1

    def test_auto_small_suite_is_serial(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert DftConfig(workers=None).resolved_workers(suite_len=1) == 1

    def test_auto_caps_at_suite_size(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert DftConfig(workers=None).resolved_workers(suite_len=3) == 3
        assert DftConfig(workers=None).resolved_workers(suite_len=100) == 8


class TestMakeExecutor:
    REFS = ("repro.systems.sensor:SenseTop",
            "repro.systems.sensor:paper_testcases")

    def test_explicit_executor_wins(self):
        executor = SerialExecutor()
        cfg = DftConfig(executor=executor, workers=8)
        assert cfg.make_executor(*self.REFS, items=10) is executor

    def test_serial_returns_none(self):
        assert DftConfig(workers=1).make_executor(*self.REFS, items=10) is None

    def test_missing_refs_force_serial(self):
        cfg = DftConfig(workers=4)
        assert cfg.make_executor(None, None, items=10) is None

    def test_parallel_builds_process_executor(self):
        cfg = DftConfig(workers=2)
        executor = cfg.make_executor(*self.REFS, items=10)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 2

    def test_single_item_never_fans_out(self):
        assert DftConfig(workers=2).make_executor(*self.REFS, items=1) is None
        pool = ProcessExecutor(*self.REFS, 2)
        assert DftConfig(executor=pool).make_executor(*self.REFS, items=1) is None

    def test_explicit_task_executor_rebound_to_the_callers_suite(self):
        pool = ProcessExecutor(*self.REFS, 2)
        cfg = DftConfig(executor=pool)
        assert cfg.make_executor(*self.REFS, items=10) is pool
        rebound = cfg.make_executor(
            self.REFS[0], "repro.systems.sensor:SenseTop", 10, suite_args=(1,)
        )
        assert rebound is not pool and rebound.workers == 2
        assert (rebound.suite_ref, rebound.suite_args) == (
            "repro.systems.sensor:SenseTop", (1,)
        )
        assert cfg.make_executor(None, None, items=10) is pool


class TestFromArgsBase:
    def test_base_layers_under_flags(self):
        base = DftConfig(engine="interp", seed=9, workers=4)
        args = argparse.Namespace(engine="block")
        cfg = DftConfig.from_args(args, base=base)
        assert cfg.engine == "block"  # flag wins
        assert cfg.seed == 9  # file value survives
        assert cfg.workers == 4

    def test_base_with_no_flags_is_identity(self):
        base = DftConfig(engine="interp", seed=9)
        assert DftConfig.from_args(argparse.Namespace(), base=base) == base


class TestSerialization:
    def test_round_trip(self):
        cfg = DftConfig(
            engine="block", seed=7, tolerance=0.5, warn=False,
            warm_start=True, budget_seconds=1.5, cache_dir="/tmp/x",
        )
        assert DftConfig.from_json(cfg.to_json()) == cfg

    def test_runtime_fields_excluded(self):
        doc = DftConfig().to_json()
        assert "executor" not in doc
        assert "result_cache" not in doc
        assert "telemetry" not in doc

    def test_unknown_field_rejected_with_known_list(self):
        # ``batch_size``, ``matcher``, ``probe_store`` and
        # ``reuse_dynamic_results`` are removed fields: old config files
        # fail loudly.
        for field in ("tpyo", "batch_size", "matcher", "probe_store",
                      "reuse_dynamic_results"):
            with pytest.raises(
                ValueError, match=rf"unknown config field\(s\): {field} "
            ) as err:
                DftConfig.from_json({field: 1})
            assert "\n" not in str(err.value)

    def test_runtime_field_in_json_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            DftConfig.from_json({"executor": "remote"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            DftConfig.from_json([1, 2])

    def test_runtime_fields_survive_as_defaults(self):
        rebuilt = DftConfig.from_json(DftConfig().to_json())
        assert rebuilt.executor is None
        assert rebuilt.telemetry is None


class TestFieldValidation:
    @pytest.mark.parametrize("changes", [
        {"workers": 0}, {"workers": -2}, {"workers": "two"}, {"workers": 1.5},
        {"workers": True}, {"tolerance": "tiny"}, {"tolerance": -1e-9},
        {"tolerance": float("nan")}, {"seed": "x"}, {"seed": 1.0},
        {"budget_seconds": -1.0}, {"budget_seconds": "1"},
        {"budget_simulations": -1}, {"budget_simulations": 2.5},
        {"engine": "jit"}, {"engine": None}, {"engine": "Block"},
        {"warn": "no"}, {"warn": 0}, {"static_cache": "false"},
        {"static_cache": None}, {"warm_start": 1}, {"warm_start": "yes"},
    ])
    def test_bad_value_is_a_one_line_error_naming_the_field(self, changes):
        (field, value), = changes.items()
        with pytest.raises(ValueError, match=rf"^{field} must be ") as err:
            DftConfig(**changes)
        assert "\n" not in str(err.value)
        with pytest.raises(ValueError, match=field):
            DftConfig().replace(**changes)
        with pytest.raises(ValueError, match=field):
            DftConfig.from_json({field: value})

    @pytest.mark.parametrize("changes", [
        {"workers": None}, {"workers": 1}, {"workers": 8}, {"tolerance": 0},
        {"tolerance": 0.5}, {"seed": -3}, {"budget_seconds": 0.0},
        {"budget_seconds": float("inf")}, {"budget_simulations": 0},
        {"budget_simulations": 40}, {"engine": "interp"}, {"engine": "block"},
        {"warn": True}, {"static_cache": False}, {"warm_start": True},
    ])
    def test_good_value_accepted(self, changes):
        cfg = DftConfig(**changes)
        for field, value in changes.items():
            assert getattr(cfg, field) == value


class TestConfigFile:
    def test_toml_file(self, tmp_path):
        path = tmp_path / "dft.toml"
        path.write_text('engine = "interp"\nseed = 11\nwarn = false\n')
        cfg = DftConfig.from_file(str(path))
        assert cfg.engine == "interp"
        assert cfg.seed == 11
        assert cfg.warn is False

    def test_json_file(self, tmp_path):
        path = tmp_path / "dft.json"
        path.write_text('{"engine": "block", "tolerance": 0.25}')
        cfg = DftConfig.from_file(str(path))
        assert cfg.engine == "block"
        assert cfg.tolerance == 0.25

    def test_file_overrides_returns_only_set_fields(self, tmp_path):
        path = tmp_path / "dft.toml"
        path.write_text("seed = 3\n")
        assert DftConfig.file_overrides(str(path)) == {"seed": 3}

    def test_missing_file_is_one_line_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config file") as err:
            DftConfig.from_file(str(tmp_path / "nope.toml"))
        assert "\n" not in str(err.value)

    def test_unparsable_file_names_path(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("this is = not [ toml")
        with pytest.raises(ValueError, match="cannot parse config file"):
            DftConfig.from_file(str(path))

    def test_unknown_field_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        for field in ("bogus", "batch_size", "matcher", "probe_store",
                      "reuse_dynamic_results"):
            path.write_text(f'{{"{field}": 4}}')
            with pytest.raises(ValueError, match=f"bad.json.*{field}"):
                DftConfig.from_file(str(path))


class TestApplyStaticCache:
    @pytest.fixture
    def cache(self):
        from repro.analysis import get_default_cache

        cache = get_default_cache()
        yield cache
        cache.enabled = True
        cache.set_disk_dir(None)

    def test_cache_dir_does_not_outlive_its_config(self, cache, tmp_path):
        DftConfig(cache_dir=str(tmp_path)).apply_static_cache()
        assert cache.disk_dir == str(tmp_path)
        # A later config (the job server's next job) without cache_dir
        # turns the disk level off instead of inheriting the directory.
        DftConfig().apply_static_cache()
        assert cache.disk_dir is None

    def test_unusable_cache_dir_is_one_line(self, cache, tmp_path):
        occupied = tmp_path / "occupied"
        occupied.write_text("a file")
        with pytest.raises(OSError, match="--cache-dir .* is not a writable directory"):
            DftConfig(cache_dir=str(occupied)).apply_static_cache()
