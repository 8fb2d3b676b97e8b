"""Differential mutant execution: oracle, sampling, and determinism.

The expensive acceptance properties — the kill matrix is byte-identical
across worker counts and across execution engines — run here on the
small seeded random cluster.  One case-study sample (buck_boost, seed
1123) pins its kill rows, netlist mutants included.
"""

import dataclasses
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DftConfig
from repro.mutation import (
    KillSite,
    MutantOutcome,
    build_report,
    format_report,
    kill_matrix_bytes,
    run_mutation,
    traces_diverge,
)
from repro.mutation.executor import (
    _attach_tracer,
    _oracle_names,
    _sample_specs,
    compute_baselines,
)
from repro.mutation.operators import MutantSpec, apply_mutant, generate_mutants
from repro.tdf import Simulator
from repro.testing.generate import random_cluster_factory, random_suite

RANDOM_FACTORY = "repro.testing.generate:random_cluster_factory"
RANDOM_SUITE = "repro.testing.generate:random_suite"


def _mutate_random(**kwargs):
    kwargs.setdefault("factory_args", (7,))
    kwargs.setdefault("suite_args", (7,))
    kwargs.setdefault("max_mutants", 10)
    config = kwargs.pop("config", DftConfig(seed=0))
    return run_mutation(RANDOM_FACTORY, RANDOM_SUITE, config, **kwargs)


class TestTraceDivergence:
    def test_identical_traces_do_not_diverge(self):
        a = {"s": [(0, 1.0), (1, 2.0)]}
        assert not traces_diverge(a, {"s": [(0, 1.0), (1, 2.0)]}, 1e-9)

    def test_value_beyond_tolerance_diverges(self):
        a = {"s": [(0, 1.0)]}
        assert traces_diverge(a, {"s": [(0, 1.0 + 1e-6)]}, 1e-9)
        assert not traces_diverge(a, {"s": [(0, 1.0 + 1e-12)]}, 1e-9)

    def test_length_and_time_shifts_diverge(self):
        a = {"s": [(0, 1.0), (1, 2.0)]}
        assert traces_diverge(a, {"s": [(0, 1.0)]}, 1e-9)
        assert traces_diverge(a, {"s": [(0, 1.0), (2, 2.0)]}, 1e-9)

    def test_missing_signal_diverges(self):
        assert traces_diverge({"s": []}, {"t": []}, 1e-9)

    def test_nan_matches_nan_but_not_numbers(self):
        nan = float("nan")
        assert not traces_diverge({"s": [(0, nan)]}, {"s": [(0, nan)]}, 1e-9)
        assert traces_diverge({"s": [(0, nan)]}, {"s": [(0, 1.0)]}, 1e-9)

    def test_infinities_compare_equal(self):
        inf = float("inf")
        assert not traces_diverge({"s": [(0, inf)]}, {"s": [(0, inf)]}, 1e-9)
        assert traces_diverge({"s": [(0, inf)]}, {"s": [(0, -inf)]}, 1e-9)


class TestSampling:
    def _specs(self, n):
        return [MutantSpec(f"m{i}", "aor", "t", i, "") for i in range(n)]

    def test_no_cap_returns_all(self):
        specs = self._specs(5)
        assert _sample_specs(specs, None, 0) == specs
        assert _sample_specs(specs, 9, 0) == specs

    def test_sample_deterministic_per_seed(self):
        specs = self._specs(50)
        assert _sample_specs(specs, 10, 3) == _sample_specs(specs, 10, 3)
        assert _sample_specs(specs, 10, 3) != _sample_specs(specs, 10, 4)

    def test_sample_preserves_enumeration_order(self):
        sites = [s.site for s in _sample_specs(self._specs(50), 10, 1)]
        assert sites == sorted(sites)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            _sample_specs(self._specs(5), -1, 0)


class TestOracleSelection:
    def test_declared_oracle_signals_win(self):
        from repro.systems.buck_boost import BuckBoostTop

        top = BuckBoostTop()
        assert _oracle_names(top, None) == list(top.MUTATION_ORACLE_SIGNALS)

    def test_explicit_request_wins_over_declared(self):
        from repro.systems.buck_boost import BuckBoostTop

        assert _oracle_names(BuckBoostTop(), ["vout"]) == ["vout"]

    def test_unknown_signal_rejected(self):
        from repro.systems.buck_boost import BuckBoostTop

        with pytest.raises(ValueError, match="oracle signal"):
            _oracle_names(BuckBoostTop(), ["nope"])


class TestRunMutation:
    def test_serial_run_classifies_and_counts(self):
        run = _mutate_random()
        assert run.generated >= len(run.specs) == 10
        assert run.killed + run.survived + run.nonviable == 10
        assert run.killed >= 1
        assert 0.0 <= run.mutation_score <= 1.0
        # Full kill rows: killing testcases come from the suite.
        names = set(run.testcase_names)
        for outcome in run.outcomes:
            assert set(outcome.killed_by) <= names

    def test_score_for_subsets_monotone(self):
        run = _mutate_random()
        prefix_scores = [
            run.score_for(run.testcase_names[:i])
            for i in range(len(run.testcase_names) + 1)
        ]
        assert prefix_scores == sorted(prefix_scores)
        assert prefix_scores[0] == 0.0

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            _mutate_random(config=DftConfig(seed=0, workers=0))


class TestTelemetry:
    def test_mutation_counters_recorded(self):
        from repro.obs import Telemetry

        tel = Telemetry()
        run = _mutate_random(max_mutants=4, config=DftConfig(seed=0, telemetry=tel))
        counters = {c.name: c.value for c in tel.metrics.counters()}
        assert counters["mutation.generated"] == run.generated
        assert counters["mutation.sampled"] == 4
        assert counters["mutation.viable"] == run.viable
        assert counters["mutation.killed"] == run.killed
        assert counters["mutation.timeout"] == run.timeouts
        spans = {s.name for s in tel.spans}
        assert {"mutation", "mutation.baseline", "mutation.mutant"} <= spans

    def test_parallel_path_folds_worker_telemetry(self):
        from repro.obs import Telemetry

        tel = Telemetry()
        _mutate_random(max_mutants=4, config=DftConfig(seed=0, workers=2, telemetry=tel))
        counters = {c.name for c in tel.metrics.counters()}
        assert "mutation.worker_mutants" in counters
        assert "tdf.periods" in counters


def _fleet(addrs, factory_ref=RANDOM_FACTORY, suite_ref=RANDOM_SUITE, **kwargs):
    from repro.service import RemoteExecutor

    return RemoteExecutor(addrs, factory_ref, suite_ref, timeout=300, **kwargs)


def _assert_same_verdicts(expected, got):
    assert kill_matrix_bytes(expected) == kill_matrix_bytes(got)
    assert [o.killed_at for o in expected.outcomes] == [
        o.killed_at for o in got.outcomes
    ]
    assert [o.nonviable_reason for o in expected.outcomes] == [
        o.nonviable_reason for o in got.outcomes
    ]


class TestBackendDeterminism:
    def test_kill_matrix_identical_across_worker_counts(self, fleet_addrs):
        serial = _mutate_random(config=DftConfig(seed=0, workers=1))
        parallel = _mutate_random(config=DftConfig(seed=0, workers=2))
        fleet = _fleet(fleet_addrs, factory_args=(7,), suite_args=(7,))
        remote = _mutate_random(config=DftConfig(seed=0, executor=fleet))
        for run in (parallel, remote):
            _assert_same_verdicts(serial, run)

    @pytest.mark.parametrize("cluster_seed", [3, 1234])
    def test_random_clusters_identical_on_every_backend(
        self, cluster_seed, fleet_addrs
    ):
        def run(**changes):
            return _mutate_random(
                factory_args=(cluster_seed,),
                suite_args=(cluster_seed,),
                config=DftConfig(seed=0, **changes),
            )

        serial = run()
        fleet = _fleet(
            fleet_addrs, factory_args=(cluster_seed,), suite_args=(cluster_seed,)
        )
        for fanned in (run(workers=2), run(executor=fleet)):
            _assert_same_verdicts(serial, fanned)

    def test_auto_workers_follow_the_shared_rule(self, monkeypatch):
        import os

        from repro.obs import Telemetry

        serial = _mutate_random(max_mutants=4, config=DftConfig(seed=0, workers=1))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        tel = Telemetry()
        auto = _mutate_random(
            max_mutants=4, config=DftConfig(seed=0, workers=None, telemetry=tel)
        )
        assert (serial.workers, auto.workers) == (1, 2)
        _assert_same_verdicts(serial, auto)
        assert tel.find_spans("mutation")[0].attributes["workers"] == 2
        assert tel.find_spans("mutation.parallel")[0].attributes["workers"] == 2
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        single = _mutate_random(max_mutants=4, config=DftConfig(seed=0, workers=None))
        assert single.workers == 1
        _assert_same_verdicts(serial, single)

    def test_kill_matrix_identical_across_engines(self):
        interp = _mutate_random(config=DftConfig(seed=0, engine="interp"))
        block = _mutate_random(config=DftConfig(seed=0, engine="block"))
        assert kill_matrix_bytes(interp) == kill_matrix_bytes(block)

    def test_budget_flag_never_changes_verdicts(self):
        generous = _mutate_random(max_mutants=5, config=DftConfig(seed=0, budget_seconds=1000.0))
        strict = _mutate_random(max_mutants=5, config=DftConfig(seed=0, budget_seconds=0.0))
        assert kill_matrix_bytes(generous) == kill_matrix_bytes(strict)
        # A zero budget flags every mutant, but kills nothing extra.
        assert strict.timeouts == len(strict.specs)
        assert generous.timeouts == 0


@lru_cache(maxsize=None)
def _buck_boost_sample(engine):
    """Seed 1123's six-mutant sample on the buck-boost base suite."""
    return run_mutation(
        "repro.systems.buck_boost:BuckBoostTop",
        "repro.systems.campaigns:buck_boost_base_suite",
        DftConfig(seed=1123, engine=engine),
        max_mutants=6,
    )


class TestCaseStudyKillRows:
    def test_buck_boost_sample_identical_on_every_backend(self, fleet_addrs):
        """The seed-1123 sample: the pool and the fleet reproduce the
        in-process kill rows and kill sites."""
        refs = (
            "repro.systems.buck_boost:BuckBoostTop",
            "repro.systems.campaigns:buck_boost_base_suite",
        )
        serial = _buck_boost_sample("block")
        for changes in ({"workers": 2}, {"executor": _fleet(fleet_addrs, *refs)}):
            fanned = run_mutation(
                *refs, DftConfig(seed=1123, engine="block", **changes),
                max_mutants=6,
            )
            _assert_same_verdicts(serial, fanned)

    def test_buck_boost_sample_kill_rows(self):
        """Every verdict of the seed-1123 sample, including the two SISO
        netlist mutants that only some testcases kill."""
        run = _buck_boost_sample("block")
        suite = tuple(run.testcase_names)
        assert len(suite) == 10
        rows = {o.spec.mutant_id: (o.status, o.killed_by) for o in run.outcomes}
        assert rows == {
            "aor:007:sw_ctrl": ("killed", suite),
            "aor:023:limiter": ("killed", suite),
            "sdl:059:thermal": ("killed", suite),
            "swap:001:sw_ctrl": ("nonviable", ()),
            "gain:000:i_vout_delay": ("killed", suite[:5]),
            "drop:001:i_sense_gain": ("killed", ("bb_boost_8v0",)),
        }
        assert suite[:5] == (
            "bb_buck_0v9", "bb_buck_1v2", "bb_buck_1v8", "bb_buck_2v5",
            "bb_buck_3v0",
        )
        reasons = {o.spec.mutant_id: o.nonviable_reason for o in run.outcomes}
        assert reasons.pop("swap:001:sw_ctrl") == "SchedulingDeadlockError"
        assert set(reasons.values()) == {None}

    def test_nonviable_reason_reaches_every_record(self):
        """The reason rides the outcome dict (task replies, the ledger),
        the JSON report and the text report, but not the kill matrix."""
        run = _buck_boost_sample("block")
        outcome = next(o for o in run.outcomes if o.status == "nonviable")
        entry = outcome.to_dict()
        assert entry["nonviable_reason"] == "SchedulingDeadlockError"
        assert MutantOutcome.from_dict(outcome.spec, entry) == outcome
        del entry["nonviable_reason"]  # a ledger entry from before the key
        assert MutantOutcome.from_dict(outcome.spec, entry).nonviable_reason is None
        payload = build_report(run, system="buck_boost")
        rows = {m["id"]: m["nonviable_reason"] for m in payload["mutants"]}
        assert rows["swap:001:sw_ctrl"] == "SchedulingDeadlockError"
        assert "    swap:001:sw_ctrl: SchedulingDeadlockError" in format_report(payload)
        unexplained = dataclasses.replace(
            run,
            outcomes=[
                dataclasses.replace(o, nonviable_reason=None) for o in run.outcomes
            ],
        )
        assert kill_matrix_bytes(unexplained) == kill_matrix_bytes(run)


def _run_to_end_oracle(factory, testcases, specs, oracle, engine, tolerance):
    """Kill rows without the early exit: every testcase runs to its end
    and the finished traces are compared whole, as before the early
    exit existed."""
    baselines = compute_baselines(factory, testcases, oracle, engine)
    outcomes = []
    for spec in specs:
        killed_by = []
        status = None
        for tc in testcases:
            cluster = factory()
            try:
                apply_mutant(cluster, spec)
                tc.apply(cluster)
                tracer = _attach_tracer(cluster, oracle)
                sim = Simulator(cluster, engine=engine)
                sim.initialize()
            except Exception:
                status = "nonviable"
                killed_by = []
                break
            try:
                sim.run(tc.duration)
                sim.finish()
            except Exception:
                killed_by.append(tc.name)
                continue
            traces = {name: tracer.samples(name) for name in oracle}
            if traces_diverge(baselines[tc.name], traces, tolerance):
                killed_by.append(tc.name)
        status = status or ("killed" if killed_by else "survived")
        outcomes.append(MutantOutcome(spec, status, tuple(killed_by), False, 0.0))
    return outcomes


class TestEarlyExitEquivalence:
    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000))
    def test_kill_rows_match_the_run_to_end_oracle(self, cluster_seed):
        factory = random_cluster_factory(cluster_seed)
        testcases = random_suite(cluster_seed)
        specs = _sample_specs(generate_mutants(factory()), 12, 0)
        oracle = _oracle_names(factory(), None)
        sites = {}
        for engine in ("interp", "block"):
            run = _mutate_random(
                factory_args=(cluster_seed,),
                suite_args=(cluster_seed,),
                max_mutants=12,
                config=DftConfig(seed=0, engine=engine),
            )
            expected = _run_to_end_oracle(
                factory, testcases, specs, oracle, engine, run.tolerance
            )
            assert kill_matrix_bytes(run) == kill_matrix_bytes(
                SimpleNamespace(outcomes=expected)
            )
            for got, want in zip(run.outcomes, expected):
                assert got.killed_by == want.killed_by, got.spec.mutant_id
                if got.status == "killed":
                    assert got.killed_at.testcase == got.killed_by[0]
                else:
                    assert got.killed_at is None
            sites[engine] = [o.killed_at for o in run.outcomes]
        assert sites["interp"] == sites["block"]


class TestKillSites:
    def test_buck_boost_sample_sites_identical_across_engines(self):
        sites = {
            engine: {
                o.spec.mutant_id: o.killed_at
                for o in _buck_boost_sample(engine).outcomes
            }
            for engine in ("interp", "block")
        }
        assert sites["interp"] == sites["block"]
        us = 1_000_000_000
        assert sites["block"] == {
            "aor:007:sw_ctrl": KillSite("bb_buck_0v9", "vout", 0),
            "aor:023:limiter": KillSite("bb_buck_0v9", "vout", 250 * us),
            "sdl:059:thermal": KillSite("bb_buck_0v9", error="NameError"),
            "swap:001:sw_ctrl": None,
            "gain:000:i_vout_delay": KillSite("bb_buck_0v9", "vout", 50 * us),
            "drop:001:i_sense_gain": KillSite("bb_boost_8v0", "vout", 7650 * us),
        }

    def test_site_round_trips_through_its_dict(self):
        for site in (
            KillSite("t", "vout", 5),
            KillSite("t", "vout", None),
            KillSite("t", error="NameError"),
        ):
            assert KillSite.from_dict(site.to_dict()) == site

    def test_warm_start_restores_sites_from_the_ledger(self, tmp_path):
        config = DftConfig(seed=0, history_dir=str(tmp_path), warm_start=True)
        cold = _mutate_random(max_mutants=6, config=config)
        warm = _mutate_random(max_mutants=6, config=config)
        assert all(o.seconds == 0.0 for o in warm.outcomes)  # replayed
        assert [o.killed_at for o in warm.outcomes] == [
            o.killed_at for o in cold.outcomes
        ]
        assert any(o.killed_at is not None for o in warm.outcomes)

    def test_crash_after_a_divergence_in_one_window_reports_the_divergence(
        self, monkeypatch
    ):
        """The interpreter stops at the divergence and never reaches the
        crash; the block engine reaches the crash inside the same window
        and must still report the divergence."""
        import repro.mutation.executor as executor
        from repro.mutation import run_mutant
        from repro.testing import TestCase
        from repro.testing.generate import build_cluster, cluster_duration

        values = [1.0] * 10

        def factory():
            return build_cluster(values, 1, 1)

        def diverge_then_crash(cluster, spec):
            dut = cluster.dut

            def processing():
                dut.processing()
                if dut.activation_count >= 3:
                    dut.op.write(99.0)
                if dut.activation_count >= 6:
                    raise ZeroDivisionError("late crash")

            dut.register_processing(processing)

        monkeypatch.setattr(executor, "apply_mutant", diverge_then_crash)
        tc = TestCase("t", cluster_duration(values), lambda cluster: None)
        oracle = _oracle_names(factory(), None)
        spec = MutantSpec("m", "aor", "dut", 0, "")
        sites = {}
        for engine in ("interp", "block"):
            baselines = compute_baselines(factory, [tc], oracle, engine)
            outcome = run_mutant(spec, factory, [tc], baselines, oracle, engine, 1e-9)
            sites[engine] = outcome.killed_at
        assert sites["interp"] == sites["block"]
        assert sites["block"].error is None
