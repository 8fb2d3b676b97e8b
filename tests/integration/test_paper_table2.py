"""Integration test: the shape of the paper's Table II campaigns.

Runs both iterative-refinement campaigns (§VI) and pins what the
per-iteration rows in ``benchmarks/results/table2_*.txt`` show:

* the exercised association count grows monotonically, row for row
  equal to the recorded tables;
* buck_boost covers every PFirm and PWeak association from iteration 0;
* window_lifter has no PFirm association at all and reaches full PWeak
  coverage by iteration 1.
"""

import pytest

from repro.core import AssocClass
from repro.systems.campaigns import buck_boost_campaign, window_lifter_campaign


@pytest.fixture(scope="module")
def buck_boost():
    return buck_boost_campaign().run()


@pytest.fixture(scope="module")
def window_lifter():
    return window_lifter_campaign().run()


class TestBuckBoost:
    def test_exercised_totals_per_iteration(self, buck_boost):
        exercised = [r.exercised_total for r in buck_boost]
        assert exercised == [109, 118, 122, 123]
        assert exercised == sorted(exercised)

    def test_pfirm_and_pweak_full_from_iteration_0(self, buck_boost):
        for record in buck_boost:
            assert record.class_percent[AssocClass.PFIRM] == 100.0
            assert record.class_percent[AssocClass.PWEAK] == 100.0


class TestWindowLifter:
    def test_exercised_totals_per_iteration(self, window_lifter):
        exercised = [r.exercised_total for r in window_lifter]
        assert exercised == [106, 131, 132, 133]
        assert exercised == sorted(exercised)

    def test_no_pfirm_column(self, window_lifter):
        for record in window_lifter:
            assert record.class_percent[AssocClass.PFIRM] is None

    def test_pweak_full_by_iteration_1(self, window_lifter):
        pweak = [r.class_percent[AssocClass.PWEAK] for r in window_lifter]
        assert pweak[0] < 100.0
        assert pweak[1:] == [100.0, 100.0, 100.0]
