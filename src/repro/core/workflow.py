"""Iterative testsuite refinement (paper §VI, Table II).

Both case studies start with an initial testbench and add testcases in
iterations, guided by the ranked missed-association report, until the
coverage goal is met.  :class:`IterativeCampaign` automates that loop:
iteration 0 runs the base suite, each further iteration appends a batch
of testcases and re-runs the pipeline, and the records line up exactly
with the Table-II columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..tdf.errors import TdfError
from ..testing.testcase import TestCase, TestSuite

if TYPE_CHECKING:  # pragma: no cover - typing-only import avoids a cycle
    from ..generation.generate import GenerationResult
    from ..generation.space import ParameterSpace
    from ..generation.search import SearchStrategy
    from ..instrument.runner import ClusterFactory
from .associations import AssocClass
from .config import DftConfig
from .coverage import CoverageResult
from .criteria import Criterion, evaluate_all
from .pipeline import run_dft


@dataclass
class IterationRecord:
    """One Table-II row."""

    index: int
    tests: int
    static_total: int
    exercised_total: int
    class_percent: Dict[AssocClass, Optional[float]]
    criteria: Dict[Criterion, bool]
    coverage: CoverageResult = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    @property
    def overall_percent(self) -> float:
        """Exercised fraction of the association universe."""
        if self.static_total == 0:
            return 100.0
        return 100.0 * self.exercised_total / self.static_total


class IterativeCampaign:
    """Runs the grow-the-testsuite loop and records Table-II rows."""

    def __init__(
        self,
        cluster_factory: "ClusterFactory",
        base_suite: Sequence[TestCase],
        name: str = "campaign",
        config: Optional[DftConfig] = None,
    ) -> None:
        self.cluster_factory = cluster_factory
        self.name = name
        self._batches: List[List[TestCase]] = [list(base_suite)]
        #: The unified run configuration (see :class:`repro.DftConfig`).
        self.config = config if config is not None else DftConfig()
        #: The ``campaign`` history record of the last :meth:`run`.
        self.record: Optional[Dict[str, Any]] = None

    def add_iteration(self, testcases: Sequence[TestCase]) -> None:
        """Schedule a batch of additional testcases as the next iteration."""
        if not testcases:
            raise ValueError("an iteration must add at least one testcase")
        self._batches.append(list(testcases))

    @property
    def iteration_count(self) -> int:
        """Number of iterations (including iteration 0)."""
        return len(self._batches)

    def suite_for(self, iteration: int) -> TestSuite:
        """The cumulative suite executed at ``iteration``."""
        if not 0 <= iteration < len(self._batches):
            raise TdfError(
                f"iteration {iteration} out of range: campaign "
                f"{self.name!r} has iterations 0..{len(self._batches) - 1}"
            )
        suite = TestSuite(f"{self.name}-it{iteration}")
        for batch in self._batches[: iteration + 1]:
            suite.extend(batch)
        return suite

    def run(self) -> List[IterationRecord]:
        """Execute every iteration and return the Table-II records."""
        from ..exec.cache import DynamicResultCache
        from ..obs.store import build_record

        # Iteration *k* re-runs every testcase of iterations 0..k-1, and
        # each run is deterministic, so results are memoized across them.
        cfg = self.config
        if cfg.result_cache is None:
            cfg = cfg.replace(result_cache=DynamicResultCache())
        # One canonical history record for the whole campaign; the inner
        # pipeline runs must not each add a "run" entry of their own.
        inner_cfg = cfg.replace(history_dir=None)
        records: List[IterationRecord] = []
        for index in range(len(self._batches)):
            suite = self.suite_for(index)
            result = run_dft(self.cluster_factory, suite, inner_cfg)
            records.append(_record_for(index, suite, result.coverage))
        # The ledger entry and the ``campaign`` job payload: the final
        # iteration's coverage plus the per-iteration trajectory.
        coverage = records[-1].coverage
        self.record = build_record(
            "campaign",
            system=self.name,
            fingerprint=coverage.static.fingerprint,
            config_hash=cfg.config_hash(),
            suite_names=[tc.name for tc in suite],
            coverage=coverage,
            telemetry=result.telemetry,
            extra={
                "campaign": {
                    "iterations": len(records),
                    "trajectory": [
                        {
                            "index": rec.index,
                            "tests": rec.tests,
                            "exercised": rec.exercised_total,
                            "percent": round(rec.overall_percent, 2),
                        }
                        for rec in records
                    ],
                }
            },
        )
        history = cfg.run_history()
        if history is not None:
            history.append(self.record)
        return records


def _record_for(
    index: int, suite: TestSuite, coverage: CoverageResult
) -> IterationRecord:
    """One Table-II row from a pipeline run (shared by both campaigns)."""
    return IterationRecord(
        index=index,
        tests=len(suite),
        static_total=coverage.static_total,
        exercised_total=coverage.exercised_total,
        class_percent={
            klass: cc.percent for klass, cc in coverage.class_coverage().items()
        },
        criteria=evaluate_all(coverage),
        coverage=coverage,
    )


class GenerationCampaign:
    """One coverage-guided generation run, framed as a campaign.

    The search-based sibling of :class:`IterativeCampaign`: instead of
    hand-written refinement batches, the "iteration 1" testcases are
    *synthesized* by :func:`repro.generation.generate_suite`.  The
    campaign view adds the Table-II record pair (before/after), so
    generated refinements drop into every report that consumes
    :class:`IterationRecord` rows.
    """

    def __init__(
        self,
        cluster_factory: "ClusterFactory",
        base_suite: Sequence[TestCase],
        system: str,
        name: str = "generation",
        config: Optional[DftConfig] = None,
        *,
        factory_ref: Optional[str] = None,
        suite_ref: Optional[str] = None,
        space: Optional["ParameterSpace"] = None,
        strategy: "str | SearchStrategy | None" = None,
        target_classes: Optional[Sequence[AssocClass]] = None,
    ) -> None:
        self.cluster_factory = cluster_factory
        self.base_suite = list(base_suite)
        self.system = system
        self.name = name
        #: The unified run configuration (see :class:`repro.DftConfig`):
        #: ``seed`` drives the search, ``budget_simulations`` /
        #: ``budget_seconds`` bound it, ``workers`` fans candidate
        #: batches out, ``engine`` selects the simulation engine.
        self.config = config if config is not None else DftConfig()
        self.factory_ref = factory_ref
        self.suite_ref = suite_ref
        self.space = space
        self.strategy = strategy
        self.target_classes = target_classes
        #: The last :class:`~repro.generation.GenerationResult` (after
        #: :meth:`run`).
        self.result: Optional["GenerationResult"] = None

    def run(self) -> List[IterationRecord]:
        """Generate, then return the before/after Table-II record pair."""
        from ..generation.generate import DEFAULT_TARGET_CLASSES, generate_suite

        kwargs = dict(
            factory_ref=self.factory_ref,
            suite_ref=self.suite_ref,
            space=self.space,
            strategy=self.strategy,
        )
        if self.target_classes is not None:
            kwargs["target_classes"] = tuple(self.target_classes)
        base = TestSuite(self.name, self.base_suite)
        self.result = generate_suite(
            self.cluster_factory, base, self.system, self.config, **kwargs
        )
        before = TestSuite(f"{self.name}-it0", self.base_suite)
        return [
            _record_for(0, before, self.result.coverage_before),
            _record_for(1, self.result.suite, self.result.coverage_after),
        ]
