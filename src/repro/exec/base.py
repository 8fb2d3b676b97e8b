"""Executor interface for the dynamic-analysis stage.

The dynamic stage runs every testcase of a suite on its own fresh
cluster — no shared state between testcases — which makes the fan-out
strategy *pluggable*: the pipeline hands an executor the static result
and the suite, and gets back one :class:`DynamicResult` whose contents
are identical whichever backend ran it.

Backends:

* :class:`SerialExecutor` — in-process, one testcase after the other
  (the default; equivalent to calling the runner directly);
* the task-running backends (:class:`repro.exec.task.TaskExecutor`):
  :class:`repro.exec.process.ProcessExecutor` (a local process pool)
  and :class:`repro.service.remote.RemoteExecutor` (a worker fleet),
  which stripe the suite into shard tasks and merge deterministically.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, TypeVar

from ..obs import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid cycles
    from ..analysis.cluster_analysis import StaticAnalysisResult
    from ..instrument.runner import ClusterFactory, DynamicResult
    from ..testing.testcase import TestSuite

_T = TypeVar("_T")


def round_robin_shards(items: Sequence[_T], workers: int) -> List[Tuple[_T, ...]]:
    """Stripe ``items`` round-robin into at most ``workers`` shards.

    Striping (rather than chunking) balances heterogeneous per-item
    costs; the shard layout depends only on ``(len(items), workers)``,
    so a parent and its workers always agree on it.  Every fan-out
    stripes with it: testcase names into ``"suite"`` tasks
    (:class:`~repro.exec.task.TaskExecutor`) and mutant indices into
    ``"mutants"`` tasks (:mod:`repro.mutation.executor`), one task per
    shard.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    count = min(workers, len(items))
    return [tuple(items[i::count]) for i in range(count)]


class DynamicExecutor(abc.ABC):
    """Strategy for executing a testsuite against an instrumented cluster."""

    #: Degree of parallelism the backend uses (1 for serial).
    workers: int = 1

    @abc.abstractmethod
    def run_suite(
        self,
        cluster_factory: "ClusterFactory",
        static: "StaticAnalysisResult",
        suite: "TestSuite",
        warn: bool = False,
        telemetry: Optional[Telemetry] = None,
        engine: Optional[str] = "auto",
    ) -> "DynamicResult":
        """Run every testcase of ``suite`` and merge the results.

        The returned :class:`DynamicResult` must order ``per_testcase``
        by the suite's testcase order — never by completion order — so
        downstream reports are byte-identical across backends and
        worker counts.  ``engine`` selects the TDF execution engine for
        the simulations (see :mod:`repro.tdf.engine`).
        """


class SerialExecutor(DynamicExecutor):
    """In-process execution, one testcase at a time (the baseline)."""

    workers = 1

    def run_suite(
        self,
        cluster_factory: "ClusterFactory",
        static: "StaticAnalysisResult",
        suite: "TestSuite",
        warn: bool = False,
        telemetry: Optional[Telemetry] = None,
        engine: Optional[str] = "auto",
    ) -> "DynamicResult":
        from ..instrument.runner import DynamicAnalyzer

        analyzer = DynamicAnalyzer(
            cluster_factory, static, warn=warn, telemetry=telemetry,
            engine=engine,
        )
        return analyzer.run_suite(suite)
