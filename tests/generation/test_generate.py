"""End-to-end tests for coverage-guided generation (repro.generation)."""

from repro import DftConfig, GenerationCampaign, TestSuite
from repro.core.associations import AssocClass
from repro.exec.cache import DynamicResultCache
from repro.generation import GenerationResult, generate_suite, suite_bytes
from repro.systems.sensor import SenseTop, paper_testcases

FACTORY_REF = "repro.systems.sensor:SenseTop"


def _base_suite() -> TestSuite:
    # A single paper testcase leaves plenty of associations uncovered —
    # the search has real work to do but the system is cheap to simulate.
    return TestSuite("sensor_base", paper_testcases()[:1])


def _generate(config: DftConfig, **kwargs) -> GenerationResult:
    return generate_suite(
        lambda: SenseTop(), _base_suite(), "sensor", config, **kwargs
    )


class TestGenerateSuite:
    def test_closes_missed_associations(self):
        res = _generate(DftConfig(seed=0, budget_simulations=30))
        assert len(res.targets) > 0
        assert len(res.closed) >= 1
        assert len(res.generated) >= 1
        # Closing associations must show up as a coverage gain.
        assert (
            res.coverage_after.overall_percent
            > res.coverage_before.overall_percent
        )

    def test_grown_suite_contains_base_and_generated(self):
        res = _generate(DftConfig(seed=0, budget_simulations=30))
        names = [tc.name for tc in res.suite.testcases]
        base_names = [tc.name for tc in _base_suite().testcases]
        assert names[: len(base_names)] == base_names
        assert set(names[len(base_names):]) == {g.name for g in res.generated}

    def test_budget_simulations_is_a_hard_lid(self):
        res = _generate(DftConfig(seed=0, budget_simulations=7))
        assert res.simulations <= 7
        assert res.stop_reason == "budget_simulations"
        skipped_or_budget = [
            t for t in res.targets if t.status in ("skipped", "budget")
        ]
        assert skipped_or_budget, "an exhausted budget must mark open targets"

    def test_targets_ranked_strongest_class_first(self):
        res = _generate(DftConfig(seed=0, budget_simulations=5))
        order = [AssocClass.STRONG.value, AssocClass.FIRM.value,
                 AssocClass.PFIRM.value, AssocClass.PWEAK.value]
        ranks = [order.index(t.klass) for t in res.targets]
        assert ranks == sorted(ranks)

    def test_opportunistic_closure_marks_pre_closed(self):
        res = _generate(DftConfig(seed=0, budget_simulations=30))
        pre = [t for t in res.targets if t.status == "pre_closed"]
        assert pre, "one candidate is expected to close several targets"
        assert all(t.closed_by for t in pre)

    def test_no_targets_stops_on_coverage(self):
        res = _generate(DftConfig(seed=0, budget_simulations=5),
                        target_classes=())
        assert res.targets == ()
        assert res.generated == ()
        assert res.stop_reason == "coverage"
        assert res.simulations == 0

    def test_shared_cache_makes_rerun_free(self):
        cache = DynamicResultCache()
        cfg = DftConfig(seed=1, result_cache=cache)
        kwargs = dict(candidates_per_round=4, max_rounds_per_target=2,
                      stagnation_rounds=1)
        first = _generate(cfg, **kwargs)
        second = _generate(cfg, **kwargs)
        assert first.simulations > 0
        assert second.simulations == 0
        assert second.memo_hits >= first.simulations
        assert suite_bytes(second) == suite_bytes(first)

    def test_counts_are_consistent(self):
        res = _generate(DftConfig(seed=0, budget_simulations=30))
        assert res.candidates >= res.simulations + 0
        assert res.memo_hits >= 0
        closed_keys = {k for g in res.generated for k in g.closed}
        assert closed_keys == set(res.closed)


class TestDeterminism:
    def test_workers_and_engine_do_not_change_the_suite(self):
        """The issue's contract: seed-identical runs are byte-identical
        across ``--workers 1/2`` and ``--engine interp/block``."""
        serial = _generate(
            DftConfig(seed=3, budget_simulations=30, workers=1,
                      engine="interp"),
            factory_ref=FACTORY_REF,
        )
        parallel = _generate(
            DftConfig(seed=3, budget_simulations=30, workers=2,
                      engine="block"),
            factory_ref=FACTORY_REF,
        )
        assert suite_bytes(serial) == suite_bytes(parallel)
        assert serial.closed == parallel.closed
        assert [t.status for t in serial.targets] == [
            t.status for t in parallel.targets
        ]
        assert (
            serial.coverage_after.overall_percent
            == parallel.coverage_after.overall_percent
        )

    def test_fleet_grows_the_serial_suite(self, fleet_addrs):
        """An explicit worker fleet (one dead address) runs the base
        suite and every candidate batch, rebound to the decode
        reference, and grows the byte-identical suite."""
        from repro.obs import Telemetry
        from repro.service import RemoteExecutor

        config = DftConfig(seed=3, budget_simulations=12)
        serial = _generate(config, factory_ref=FACTORY_REF)
        fleet = RemoteExecutor(
            fleet_addrs, FACTORY_REF, "repro.systems.sensor:paper_testcases",
            timeout=120,
        )
        tel = Telemetry()
        remote = _generate(
            config.replace(executor=fleet, telemetry=tel),
            factory_ref=FACTORY_REF,
        )
        assert suite_bytes(serial) == suite_bytes(remote)
        assert serial.simulations == remote.simulations
        fan_outs = [s for s in tel.spans if s.name == "dynamic.remote"]
        assert len(fan_outs) >= 2  # the base suite and at least one batch

    def test_seed_changes_the_search(self):
        a = _generate(DftConfig(seed=0, budget_simulations=20))
        b = _generate(DftConfig(seed=42, budget_simulations=20))
        assert suite_bytes(a) != suite_bytes(b)


class TestGenerationCampaign:
    def test_campaign_wraps_generate_suite(self):
        campaign = GenerationCampaign(
            lambda: SenseTop(), _base_suite(), "sensor",
            config=DftConfig(seed=0, budget_simulations=30),
        )
        records = campaign.run()
        assert len(records) == 2
        before, after = records
        assert (before.index, after.index) == (0, 1)
        assert after.tests > before.tests
        assert after.exercised_total > before.exercised_total
        assert campaign.result is not None
        assert len(campaign.result.closed) >= 1
