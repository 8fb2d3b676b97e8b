"""Property tests for the graded du-path fitness (PR-9 satellite).

Two contracts:

* *ordering consistency* — :func:`repro.generation.fitness.graded_fitness`
  never contradicts the binary :func:`association_fitness` ordering: a
  covered candidate always outranks an uncovered one, the graded score
  only adds mass within the uncovered band, and with no guide the two
  functions coincide exactly;
* *determinism* — a guided, frontier-targeted generation run is
  byte-identical across ``--engine interp|block`` and ``--workers 1/2``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DftConfig, TestSuite
from repro.generation import generate_suite, suite_bytes
from repro.generation.fitness import (
    DuPathGuide,
    association_fitness,
    graded_fitness,
)
from repro.systems.sensor import SenseTop, paper_testcases

FACTORY_REF = "repro.systems.sensor:SenseTop"

_VARS = ["x", "y", "m_acc"]
_MODELS = ["dut", "gain"]
_LINES = st.integers(min_value=1, max_value=12)


def _pair_key():
    return st.tuples(
        st.sampled_from(_VARS), st.sampled_from(_MODELS), _LINES,
        st.sampled_from(_MODELS), _LINES,
    )


def _guide_for(target):
    return st.builds(
        lambda approach, kill: DuPathGuide(target, approach, kill),
        st.dictionaries(_LINES, st.floats(0.01, 1.0), max_size=6),
        st.dictionaries(_LINES, st.floats(0.01, 1.0), max_size=6),
    )


@st.composite
def _target_pairs_guide(draw):
    target = draw(_pair_key())
    pairs = draw(st.frozensets(_pair_key(), max_size=12))
    guide = draw(_guide_for(target))
    return target, set(pairs), guide


class TestOrderingConsistency:
    @settings(max_examples=300, deadline=None)
    @given(_target_pairs_guide())
    def test_graded_never_contradicts_binary(self, tpg):
        target, pairs, guide = tpg
        base = association_fitness(target, pairs)
        graded = graded_fitness(target, pairs, guide)
        # Covered is exactly 1.0 either way; uncovered stays below it.
        assert graded.covered == base.covered
        if base.covered:
            assert graded.score == base.score == 1.0
        else:
            assert base.score <= graded.score <= 0.99 < 1.0
        # The refinement never touches the binary level flags.
        assert graded.def_reached == base.def_reached
        assert graded.use_reached == base.use_reached
        assert graded.killed_en_route == base.killed_en_route

    @settings(max_examples=300, deadline=None)
    @given(_target_pairs_guide(), st.frozensets(_pair_key(), max_size=12))
    def test_covered_outranks_uncovered(self, tpg, other_pairs):
        target, pairs, guide = tpg
        a = graded_fitness(target, set(pairs), guide)
        b = graded_fitness(target, set(other_pairs), guide)
        if a.covered and not b.covered:
            assert b < a
        if b.covered and not a.covered:
            assert a < b

    @settings(max_examples=200, deadline=None)
    @given(_target_pairs_guide())
    def test_no_guide_is_exactly_binary(self, tpg):
        target, pairs, _ = tpg
        assert graded_fitness(target, pairs, None) == association_fitness(
            target, pairs
        )

    @settings(max_examples=200, deadline=None)
    @given(_target_pairs_guide())
    def test_pure_function_of_pair_set(self, tpg):
        """Same pair set, same guide -> same Fitness, independent of
        iteration order (the cross-backend determinism precondition)."""
        target, pairs, guide = tpg
        first = graded_fitness(target, set(sorted(pairs)), guide)
        second = graded_fitness(target, set(reversed(sorted(pairs))), guide)
        assert first == second


class TestGuidedDeterminism:
    def _generate(self, **cfg_kwargs):
        return generate_suite(
            lambda: SenseTop(),
            TestSuite("sensor_base", paper_testcases()[:1]),
            "sensor",
            DftConfig(seed=5, budget_simulations=24, **cfg_kwargs),
            factory_ref=FACTORY_REF,
            strategy="guided",
            target_mode="frontier",
        )

    def test_byte_identical_across_matcher_engine_workers(self):
        baseline = self._generate(engine="interp", workers=1)
        variants = [
            self._generate(engine="interp", workers=2),
            self._generate(engine="block", workers=1),
            self._generate(engine="block", workers=2),
        ]
        base_bytes = suite_bytes(baseline)
        for variant in variants:
            assert suite_bytes(variant) == base_bytes
            assert variant.closed == baseline.closed
            assert [t.status for t in variant.targets] == [
                t.status for t in baseline.targets
            ]
            assert [t.trajectory for t in variant.targets] == [
                t.trajectory for t in baseline.targets
            ]
