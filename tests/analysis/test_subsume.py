"""Property and unit tests for the subsumption analysis pass.

Two property families, both over the random multirate clusters from
:mod:`repro.testing.generate`:

* *order* — the strict relation returned by
  :func:`repro.analysis.subsume.analyze_subsumption` is a partial
  order (irreflexive, antisymmetric, transitive) and every subsumed
  association sits below some frontier element;
* *frontier covering* — dynamically, covering a subsumer really does
  cover everything it subsumes, per testcase and therefore for any
  testcase set that covers the frontier.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_cluster, analyze_subsumption, frontier_reduced
from repro.core import run_dft
from repro.testing import TestSuite
from repro.testing.generate import (
    build_cluster,
    build_random_cluster,
    random_cluster_params,
    random_suite,
    rate_strategy,
    values_strategy,
)


def _subsumption_for(values, up_rate, down_rate):
    static = analyze_cluster(build_cluster(values, up_rate, down_rate))
    return static, analyze_subsumption(static)


class TestPartialOrder:
    @settings(max_examples=25, deadline=None)
    @given(values_strategy(max_size=4), rate_strategy(), rate_strategy())
    def test_irreflexive_and_antisymmetric(self, values, up, down):
        _, sub = _subsumption_for(values, up, down)
        keys = [a.key for a in sub.associations]
        for a in keys:
            assert not sub.subsumes(a, a)
        for a, downs in sub.subsumed_of.items():
            for b in downs:
                assert not sub.subsumes(b, a), (a, b)

    @settings(max_examples=25, deadline=None)
    @given(values_strategy(max_size=4), rate_strategy(), rate_strategy())
    def test_transitive(self, values, up, down):
        _, sub = _subsumption_for(values, up, down)
        for a, downs in sub.subsumed_of.items():
            for b in downs:
                for c in sub.subsumed_of.get(b, frozenset()):
                    if c != a:
                        assert sub.subsumes(a, c), (a, b, c)

    @settings(max_examples=25, deadline=None)
    @given(values_strategy(max_size=4), rate_strategy(), rate_strategy())
    def test_every_subsumed_key_has_frontier_representative(
        self, values, up, down
    ):
        _, sub = _subsumption_for(values, up, down)
        for b in sub.subsumed_keys():
            rep = sub.representative.get(b)
            assert rep is not None
            assert rep in sub.frontier_keys
            assert sub.subsumes(rep, b)

    @settings(max_examples=25, deadline=None)
    @given(values_strategy(max_size=4), rate_strategy(), rate_strategy())
    def test_frontier_partitions_by_class(self, values, up, down):
        _, sub = _subsumption_for(values, up, down)
        whole = sub.frontier()
        by_class = {a.key for a in whole}
        counts = sub.counts()
        for klass, (front, total) in counts.items():
            members = sub.frontier(klass)
            assert len(members) == front
            assert front <= total
            assert all(a.key in by_class for a in members)
        assert sum(f for f, _ in counts.values()) == len(whole)

    @settings(max_examples=25, deadline=None)
    @given(values_strategy(max_size=4), rate_strategy(), rate_strategy())
    def test_frontier_reduced_is_a_partition(self, values, up, down):
        static, sub = _subsumption_for(values, up, down)
        front, subsumed = frontier_reduced(static.associations, sub)
        assert len(front) + len(subsumed) == len(static.associations)
        assert {a.key for a in front} <= sub.frontier_keys
        assert {a.key for a in subsumed}.isdisjoint(sub.frontier_keys)


class TestFrontierCovering:
    """Dynamic soundness: covered(subsumer) implies covered(subsumed)."""

    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_per_testcase_implication(self, seed):
        factory = lambda: build_random_cluster(seed)
        suite = TestSuite(f"rand-{seed}", random_suite(seed))
        result = run_dft(factory, suite)
        sub = analyze_subsumption(result.static)
        per_tc = {
            name: set(match.pairs)
            for name, match in result.dynamic.per_testcase.items()
        }
        for a_key, downs in sub.subsumed_of.items():
            for name, covered in per_tc.items():
                if a_key in covered:
                    for b_key in downs:
                        assert b_key in covered, (name, a_key, b_key)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_covering_the_frontier_covers_everything(self, seed):
        """Any testcase set covering the frontier covers the full set.

        Checked constructively: greedily select testcases until the
        selection covers every frontier key the full suite can cover;
        the selection's union must then contain every *subsumed* key
        whose representative it covers — and, when the whole frontier
        is covered, every subsumed key outright.
        """
        factory = lambda: build_random_cluster(seed)
        suite = TestSuite(f"rand-{seed}", random_suite(seed))
        result = run_dft(factory, suite)
        sub = analyze_subsumption(result.static)
        per_tc = {
            name: set(match.pairs)
            for name, match in result.dynamic.per_testcase.items()
        }
        full_union = set().union(*per_tc.values()) if per_tc else set()
        reachable_frontier = sub.frontier_keys & full_union

        selection: set = set()
        covered: set = set()
        while reachable_frontier - covered:
            name = max(
                sorted(per_tc),
                key=lambda n: len((reachable_frontier - covered) & per_tc[n]),
            )
            assert name not in selection  # progress every round
            selection.add(name)
            covered |= per_tc[name]

        for b_key in sub.subsumed_keys():
            rep = sub.representative[b_key]
            if rep in covered:
                assert b_key in covered, (rep, b_key)
        if reachable_frontier == sub.frontier_keys & full_union and \
                sub.frontier_keys <= covered:
            assert {a.key for a in sub.associations} <= covered


class TestSeededCluster:
    def test_analysis_is_deterministic(self):
        import dataclasses

        values, up, down = random_cluster_params(7)
        static, first = _subsumption_for(values, up, down)
        # Without a fingerprint the relation is computed afresh.
        second = analyze_subsumption(dataclasses.replace(static, fingerprint=None))
        assert second is not first
        assert first.frontier_keys == second.frontier_keys
        assert first.subsumed_of == second.subsumed_of
        assert first.representative == second.representative

    def test_memoized_per_fingerprint_and_immutable(self, monkeypatch):
        import dataclasses

        import pytest

        from repro.analysis import get_default_cache

        values, up, down = random_cluster_params(7)
        static, first = _subsumption_for(values, up, down)
        _, second = _subsumption_for(values, up, down)
        assert second is first
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.frontier_keys = frozenset()
        with pytest.raises(TypeError):
            first.subsumed_of[("x",)] = frozenset()
        monkeypatch.setattr(get_default_cache(), "enabled", False)
        assert analyze_subsumption(static) is not first

    def test_port_associations_stay_frontier(self):
        values, up, down = random_cluster_params(3)
        static, sub = _subsumption_for(values, up, down)
        from repro.core.associations import VarScope

        for assoc in static.associations:
            if assoc.scope is VarScope.PORT:
                assert assoc.key in sub.frontier_keys
