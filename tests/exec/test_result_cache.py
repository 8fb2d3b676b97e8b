"""Per-testcase dynamic-result memoization (campaign acceleration)."""

from repro import DftConfig
from repro.core import run_dft
from repro.core.workflow import IterativeCampaign, _record_for
from repro.exec import DynamicResultCache
from repro.instrument.matching import MatchResult
from repro.systems.sensor import SenseTop, paper_testcases
from repro.testing import TestSuite


def _factory():
    return SenseTop()


def _simulator(calls):
    """A ``simulate`` callable recording each call's missing names."""

    def simulate(missing):
        calls.append(list(missing))
        return {name: MatchResult(name) for name in missing}

    return simulate


class TestDynamicResultCache:
    def test_resolve_miss_then_hit(self):
        cache = DynamicResultCache()
        calls = []
        first, hits = cache.resolve("fp", ["tc"], _simulator(calls))
        assert hits == 0 and calls == [["tc"]]
        second, hits = cache.resolve("fp", ["tc"], _simulator(calls))
        assert hits == 1 and calls == [["tc"]]
        assert second["tc"] is first["tc"]
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        assert len(cache) == 1

    def test_duplicates_collapse_and_order_follows_names(self):
        cache = DynamicResultCache()
        cache.resolve("fp", ["b"], _simulator([]))
        calls = []
        results, hits = cache.resolve("fp", ["a", "b", "a", "c"], _simulator(calls))
        assert list(results) == ["a", "b", "c"]
        assert hits == 1 and calls == [["a", "c"]]

    def test_unanswered_misses_are_left_out(self):
        cache = DynamicResultCache()
        results, hits = cache.resolve(
            "fp", ["a", "b"], lambda missing: {"a": MatchResult("a")}
        )
        assert list(results) == ["a"] and hits == 0
        assert len(cache) == 1

    def test_fingerprint_scopes_entries(self):
        cache = DynamicResultCache()
        cache.resolve("fp1", ["tc"], _simulator([]))
        calls = []
        _, hits = cache.resolve("fp2", ["tc"], _simulator(calls))
        assert hits == 0 and calls == [["tc"]]

    def test_none_fingerprint_disables_caching(self):
        cache = DynamicResultCache()
        calls = []
        cache.resolve(None, ["tc"], _simulator(calls))
        cache.resolve(None, ["tc"], _simulator(calls))
        assert len(cache) == 0
        assert calls == [["tc"], ["tc"]]
        assert cache.misses == 2

    def test_clear(self):
        cache = DynamicResultCache()
        cache.resolve("fp", ["tc"], _simulator([]))
        cache.resolve("fp", ["tc"], _simulator([]))
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


class TestPipelineResultCache:
    def test_cached_testcases_not_reexecuted(self):
        builds = []

        def counting_factory():
            builds.append(1)
            return SenseTop()

        suite = TestSuite("sensor", paper_testcases())
        cache = DynamicResultCache()
        first = run_dft(counting_factory, suite, DftConfig(result_cache=cache))
        builds_first = len(builds)
        second = run_dft(counting_factory, suite, DftConfig(result_cache=cache))
        # Second run: one build for the static stage, none for testcases.
        assert len(builds) == builds_first + 1
        assert cache.hits == len(suite)
        assert first.dynamic.exercised_keys() == second.dynamic.exercised_keys()
        assert list(second.dynamic.per_testcase) == suite.names()

    def test_partial_cache_runs_only_pending(self):
        suite = TestSuite("sensor", paper_testcases())
        cache = DynamicResultCache()
        warmup = TestSuite("warmup", suite.testcases[:2])
        run_dft(_factory, warmup, DftConfig(result_cache=cache))
        result = run_dft(_factory, suite, DftConfig(result_cache=cache))
        assert cache.hits == 2
        assert list(result.dynamic.per_testcase) == suite.names()
        uncached = run_dft(_factory, suite)
        assert (
            result.dynamic.exercised_keys() == uncached.dynamic.exercised_keys()
        )


class TestBatchedPipelineCache:
    def test_cache_hits_never_enter_a_batch(self):
        # Resolution order: cached testcases are served from the cache
        # *before* the pending suite is assembled, so a warm cache costs
        # zero cluster builds for its hits.
        builds = []

        def counting_factory():
            builds.append(1)
            return SenseTop()

        suite = TestSuite("sensor", paper_testcases())
        cache = DynamicResultCache()
        warmup = TestSuite("warmup", suite.testcases[:2])
        run_dft(counting_factory, warmup, DftConfig(result_cache=cache))
        builds.clear()
        result = run_dft(
            counting_factory,
            suite,
            DftConfig(result_cache=cache, engine="block"),
        )
        pending = len(suite) - len(warmup)
        # One build for the static stage, one per *pending* testcase.
        assert len(builds) == pending + 1
        assert cache.hits == len(warmup)
        assert list(result.dynamic.per_testcase) == suite.names()
        # The merged result is byte-equal to a cold serial run.
        serial = run_dft(_factory, suite)
        assert result.dynamic.exercised_keys() == serial.dynamic.exercised_keys()
        for name, match in serial.dynamic.per_testcase.items():
            assert result.dynamic.per_testcase[name].pairs == match.pairs


class TestCampaignReuse:
    def _campaign(self):
        tests = paper_testcases()
        campaign = IterativeCampaign(_factory, tests[:1], name="mini")
        campaign.add_iteration(tests[1:2])
        campaign.add_iteration(tests[2:])
        return campaign

    def test_reuse_matches_cold_records(self):
        campaign = self._campaign()
        cold = []
        for index in range(campaign.iteration_count):
            suite = campaign.suite_for(index)
            result = run_dft(_factory, suite)
            cold.append(_record_for(index, suite, result.coverage))
        cached = campaign.run()
        assert len(cold) == len(cached) == 3
        for a, b in zip(cold, cached):
            assert a.tests == b.tests
            assert a.exercised_total == b.exercised_total
            assert a.class_percent == b.class_percent
            assert a.criteria == b.criteria
