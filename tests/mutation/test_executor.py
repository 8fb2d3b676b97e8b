"""Differential mutant execution: oracle, sampling, and determinism.

The expensive acceptance properties — the kill matrix is byte-identical
across worker counts and across execution engines — run here on the
small seeded random cluster.  One case-study sample (buck_boost, seed
1123) pins its kill rows, netlist mutants included.
"""

import pytest

from repro.core import DftConfig
from repro.mutation import (
    kill_matrix_bytes,
    run_mutation,
    traces_diverge,
)
from repro.mutation.executor import _oracle_names, _sample_specs
from repro.mutation.operators import MutantSpec

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
        histograms = {h.name for h in tel.metrics.histograms()}
        assert "mutation.worker_seconds" in histograms


class TestBackendDeterminism:
    def test_kill_matrix_identical_across_worker_counts(self):
        serial = _mutate_random(config=DftConfig(seed=0, workers=1))
        parallel = _mutate_random(config=DftConfig(seed=0, workers=2))
        assert kill_matrix_bytes(serial) == kill_matrix_bytes(parallel)

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


class TestCaseStudyKillRows:
    def test_buck_boost_sample_kill_rows(self):
        """Seed 1123's six-mutant sample on the buck-boost base suite:
        every verdict, including the two SISO netlist mutants that only
        some testcases kill."""
        run = run_mutation(
            "repro.systems.buck_boost:BuckBoostTop",
            "repro.systems.campaigns:buck_boost_base_suite",
            DftConfig(seed=1123),
            max_mutants=6,
        )
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
