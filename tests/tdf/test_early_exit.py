"""``Simulator.run(duration, until=...)``: the early-exit predicate.

A predicate that never fires must leave the simulation exactly as a
plain run does; one that fires stops the run at the next period
boundary (interpreter) or window boundary (block engine).  The mutation
executor's use of it, stopping a killed testcase at its first
divergence, must really cut the simulated periods and must still kill
a mutant whose trace only differs in length.
"""

import pytest

from repro.mutation import compute_baselines, run_mutant
from repro.mutation.executor import _oracle_names
from repro.mutation.operators import generate_mutants
from repro.obs import Telemetry, telemetry_session
from repro.systems.registry import SYSTEMS
from repro.tdf import Simulator
from repro.tdf.engine.compiler import WINDOW_PERIODS

ENGINES = ("interp", "block")


def _simulator(system, engine):
    entry = SYSTEMS[system]
    tc = entry.base_suite(system).testcases[0]
    cluster = entry.factory()()
    tc.apply(cluster)
    return Simulator(cluster, engine=engine), tc.duration


def _state(sim):
    """Every signal's token buffer plus the simulator's clock."""
    signals = {
        s.name: (
            s._base_index, list(s._tokens), s._write_count,
            sorted(port._cursor for port in s.readers),
        )
        for s in sim.cluster.signals
    }
    return signals, sim.now, sim.periods_run


class TestUntilPredicate:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_false_predicate_changes_nothing(self, system, engine):
        plain, duration = _simulator(system, engine)
        plain.run(duration)
        polled, _ = _simulator(system, engine)
        calls = []
        polled.run(duration, until=lambda: calls.append(1) and False)
        assert calls, "the predicate was never polled"
        assert _state(polled) == _state(plain)

    def test_true_predicate_stops_interp_after_one_period(self):
        sim, duration = _simulator("buck_boost", "interp")
        sim.run(duration, until=lambda: True)
        assert sim.periods_run == 1

    def test_true_predicate_stops_block_within_one_window(self):
        sim, duration = _simulator("buck_boost", "block")
        sim.run(duration, until=lambda: True)
        assert 1 <= sim.periods_run <= WINDOW_PERIODS

    def test_run_resumes_after_an_early_exit(self):
        stopped, duration = _simulator("buck_boost", "block")
        stopped.run(duration, until=lambda: True)
        stopped.run(duration - stopped.now)
        plain, _ = _simulator("buck_boost", "block")
        plain.run(duration)
        assert _state(stopped) == _state(plain)


# -- the mutation executor's early exit --------------------------------------

FACTORY = SYSTEMS["buck_boost"].factory()


def _buck_boost_fixture():
    from repro.systems.campaigns import buck_boost_base_suite

    suite = list(buck_boost_base_suite())
    oracle = _oracle_names(FACTORY(), None)
    baselines = compute_baselines(FACTORY, suite, oracle, "block")
    return suite, oracle, baselines


def _spec(mutant_id):
    return next(s for s in generate_mutants(FACTORY()) if s.mutant_id == mutant_id)


class TestMutantEarlyExit:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_diverging_mutant_simulates_far_fewer_periods(self, engine):
        suite, oracle, baselines = _buck_boost_fixture()
        tel = Telemetry()
        with telemetry_session(tel):
            outcome = run_mutant(
                _spec("aor:007:sw_ctrl"), FACTORY, suite, baselines, oracle,
                engine, 1e-9,
            )
        periods = sum(c.value for c in tel.metrics.counters() if c.name == "tdf.periods")
        assert outcome.killed_by == tuple(tc.name for tc in suite)
        # Diverges at sample 0: each testcase stops within its first
        # window instead of running all of its 800 periods.
        assert periods <= len(suite) * WINDOW_PERIODS
        assert periods * 20 < len(suite) * 800

    def _run_unmutated(self, monkeypatch, baselines, suite, oracle):
        # The unmutated system against a doctored baseline: the trace
        # differs from the baseline in length only.
        import repro.mutation.executor as executor

        monkeypatch.setattr(executor, "apply_mutant", lambda cluster, spec: None)
        return run_mutant(
            _spec("aor:007:sw_ctrl"), FACTORY, suite, baselines, oracle,
            "block", 1e-9,
        )

    def test_strict_prefix_of_the_baseline_kills(self, monkeypatch):
        suite, oracle, baselines = _buck_boost_fixture()
        tc = suite[0]
        longer = {name: list(rows) for name, rows in baselines[tc.name].items()}
        name = oracle[-1]
        t_last, value = longer[name][-1]
        longer[name].append((t_last + t_last, value))
        outcome = self._run_unmutated(monkeypatch, {tc.name: longer}, [tc], oracle)
        assert outcome.status == "killed"
        assert outcome.killed_at.signal == name
        assert outcome.killed_at.time_fs == 2 * t_last.femtoseconds

    def test_trace_longer_than_the_baseline_kills(self, monkeypatch):
        suite, oracle, baselines = _buck_boost_fixture()
        tc = suite[0]
        shorter = {name: list(rows) for name, rows in baselines[tc.name].items()}
        name = oracle[0]
        t_last, _ = shorter[name].pop()
        outcome = self._run_unmutated(monkeypatch, {tc.name: shorter}, [tc], oracle)
        assert outcome.status == "killed"
        assert outcome.killed_at.signal == name
        assert outcome.killed_at.time_fs == t_last.femtoseconds

    def test_exact_baseline_survives(self, monkeypatch):
        suite, oracle, baselines = _buck_boost_fixture()
        outcome = self._run_unmutated(monkeypatch, baselines, suite[:2], oracle)
        assert outcome.status == "survived"
        assert outcome.killed_at is None
