"""Process-pool execution of the dynamic-analysis stage.

Every testcase runs on its own freshly built cluster (the
:data:`~repro.instrument.runner.ClusterFactory` contract), so the
dynamic stage is embarrassingly parallel: shard the testcase names
across worker processes, let each worker rebuild the factory and suite
from importable references (:mod:`repro.exec.refs`), run its shard with
the ordinary serial :class:`~repro.instrument.runner.DynamicAnalyzer`,
and ship the :class:`~repro.instrument.matching.MatchResult`s back.

Determinism: results are merged **by the suite's testcase order**,
never by completion order, and each testcase's result is independent of
every other testcase — so ``--workers 4`` produces byte-identical
coverage reports to ``--workers 1``.

Telemetry: each worker records into a private session and returns its
raw metrics (kernel counters, probe-event counts, per-period timings),
which the parent folds back into its own session together with
per-worker ``exec.worker_seconds`` / ``exec.worker_testcases`` records.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor as _Pool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..obs import Telemetry, get_telemetry, telemetry_session
from .base import DynamicExecutor, round_robin_shards
from .refs import resolve_ref

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid cycles
    from ..analysis.cluster_analysis import StaticAnalysisResult
    from ..instrument.matching import MatchResult
    from ..instrument.runner import ClusterFactory, DynamicResult
    from ..testing.testcase import TestSuite


@dataclass(frozen=True)
class _WorkerStatic:
    """The slice of the static result the dynamic matcher needs.

    Shipping the full :class:`StaticAnalysisResult` (per-model analyses,
    AST source info) across the process boundary would be wasteful; the
    runner only reads ``model_start_lines``.
    """

    model_start_lines: Dict[str, int]


@dataclass(frozen=True)
class _WorkerJob:
    """One worker's share of the suite, in picklable form."""

    factory_ref: str
    suite_ref: str
    names: Tuple[str, ...]
    model_start_lines: Tuple[Tuple[str, int], ...]
    warn: bool
    record_telemetry: bool
    engine: str = "auto"
    suite_args: Tuple = ()


def _run_worker(job: _WorkerJob) -> Tuple[List[Tuple[str, "MatchResult"]], List[dict], float]:
    """Worker entry point: run the job's testcases on fresh clusters."""
    import time

    from ..instrument.runner import DynamicAnalyzer

    t0 = time.perf_counter()
    factory = resolve_ref(job.factory_ref)
    testcases = {tc.name: tc for tc in resolve_ref(job.suite_ref)(*job.suite_args)}
    missing = [name for name in job.names if name not in testcases]
    if missing:
        raise LookupError(
            f"suite reference {job.suite_ref!r} does not provide "
            f"testcase(s) {missing}"
        )
    static = _WorkerStatic(model_start_lines=dict(job.model_start_lines))
    results: List[Tuple[str, "MatchResult"]] = []
    # A private session per worker: kernel hooks key off the globally
    # active telemetry, so activating one here captures tdf.* metrics
    # too.  A forked child may have inherited the parent's session
    # object; telemetry_session replaces (and later restores) it.
    with telemetry_session(Telemetry() if job.record_telemetry else None) as tel:
        analyzer = DynamicAnalyzer(
            factory, static, warn=job.warn,
            telemetry=tel if job.record_telemetry else None,
            engine=job.engine,
        )
        for name in job.names:
            results.append((name, analyzer.run_testcase(testcases[name])))
        payload = tel.metrics.raw_records() if job.record_telemetry else []
    return results, payload, time.perf_counter() - t0


class ProcessExecutor(DynamicExecutor):
    """Fan testcases out across a :class:`concurrent.futures` process pool."""

    def __init__(
        self,
        factory_ref: str,
        suite_ref: str,
        workers: int,
        suite_args: Sequence = (),
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # Fail fast, in the parent, on unresolvable references.
        resolve_ref(factory_ref)
        resolve_ref(suite_ref)
        self.factory_ref = factory_ref
        self.suite_ref = suite_ref
        self.workers = workers
        #: Picklable positional arguments applied to the resolved suite
        #: callable (``resolve_ref(suite_ref)(*suite_args)``) — how
        #: synthesized suites (whose testcase closures cannot be
        #: pickled) travel to workers as plain parameter encodings (see
        #: :func:`repro.generation.space.decode_candidates`).
        self.suite_args = tuple(suite_args)

    def _shards(self, names: Sequence[str]) -> List[Tuple[str, ...]]:
        """Round-robin striping: balances heterogeneous testcase costs."""
        return round_robin_shards(names, self.workers)

    def run_suite(
        self,
        cluster_factory: "ClusterFactory",
        static: "StaticAnalysisResult",
        suite: "TestSuite",
        warn: bool = False,
        telemetry: Optional[Telemetry] = None,
        engine: Optional[str] = "auto",
    ) -> "DynamicResult":
        from ..instrument.runner import DynamicResult

        tel = telemetry if telemetry is not None else get_telemetry()
        names = [tc.name for tc in suite]
        result = DynamicResult()
        if not names:
            return result

        # Validate up front that the workers will see the same suite.
        provided = {tc.name for tc in resolve_ref(self.suite_ref)(*self.suite_args)}
        unknown = [name for name in names if name not in provided]
        if unknown:
            raise LookupError(
                f"suite reference {self.suite_ref!r} does not provide "
                f"testcase(s) {unknown}; parallel execution needs every "
                f"testcase to be rebuildable by name in the workers"
            )

        shards = self._shards(names)
        jobs = [
            _WorkerJob(
                factory_ref=self.factory_ref,
                suite_ref=self.suite_ref,
                names=shard,
                model_start_lines=tuple(static.model_start_lines.items()),
                warn=warn,
                record_telemetry=tel.enabled,
                engine=engine if engine is not None else "auto",
                suite_args=self.suite_args,
            )
            for shard in shards
        ]
        per_name: Dict[str, "MatchResult"] = {}
        with tel.span(
            "dynamic.parallel", workers=len(jobs), testcases=len(names)
        ):
            with _Pool(max_workers=len(jobs)) as pool:
                outputs = list(pool.map(_run_worker, jobs))
            for index, (matches, payload, wall) in enumerate(outputs):
                for name, match in matches:
                    per_name[name] = match
                if tel.enabled:
                    tel.metrics.merge_raw(payload)
                    tel.metrics.histogram("exec.worker_seconds").observe(wall)
                    tel.metrics.counter(
                        "exec.worker_testcases", worker=index
                    ).inc(len(matches))
        for name in names:
            result.per_testcase[name] = per_name[name]
        return result
