"""The end-to-end DFT pipeline (paper Fig. 3).

``static analysis -> dynamic analysis -> coverage analysis``, fully
automatic: give it a cluster factory and a testsuite, get back the
classified coverage result plus a telemetry span per stage.

Every run records stage spans (``pipeline`` > ``static`` / ``dynamic``
/ ``coverage``) into the active :mod:`repro.obs` telemetry — or into a
private session when telemetry is disabled, so the
:attr:`PipelineResult.timings` view always has data without activating
the kernel-level hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, TYPE_CHECKING

from ..obs import Telemetry, get_telemetry
from ..testing.testcase import TestSuite
from .config import DftConfig
from .coverage import CoverageResult

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid a cycle
    from ..analysis.cluster_analysis import StaticAnalysisResult
    from ..instrument.runner import ClusterFactory, DynamicResult
    from ..obs import Span


@dataclass
class PipelineResult:
    """Outcome of one full pipeline run."""

    static: "StaticAnalysisResult"
    dynamic: "DynamicResult"
    coverage: CoverageResult
    #: Stage spans keyed by stage name: 'static', 'dynamic', 'coverage'.
    spans: Dict[str, "Span"] = field(default_factory=dict)
    #: The telemetry session the run recorded into (the globally active
    #: one, or a private per-run session when telemetry was disabled).
    telemetry: Optional[Telemetry] = None

    @property
    def timings(self) -> Dict[str, float]:
        """Wall-clock seconds per stage, derived from the stage spans.

        A plain dict: ``{'static': ..., 'dynamic': ..., 'coverage': ...}``.
        """
        return {name: span.wall for name, span in self.spans.items()}


def run_dft(
    cluster_factory: "ClusterFactory",
    suite: TestSuite,
    config: Optional[DftConfig] = None,
) -> PipelineResult:
    """Run the complete data-flow-testing pipeline.

    ``cluster_factory`` must build a *fresh* cluster on each call —
    dynamic analysis executes every testcase on its own instance so that
    member state cannot leak between testcases (see
    :data:`repro.instrument.runner.ClusterFactory`); the pipeline itself
    calls it once more for the static stage, and telemetry counts
    every build (``pipeline.cluster_builds``).

    ``config`` carries every knob (see :class:`repro.core.DftConfig`):

    * ``config.warn`` turns use-without-def findings into Python
      warnings in addition to the report entries;
    * ``config.telemetry`` overrides the globally active session;
    * ``config.executor`` selects the dynamic-stage backend (serial
      when ``None``; see :mod:`repro.exec` — ``config.workers`` is
      *not* consulted here because building a process executor needs
      importable references the pipeline does not have; use
      :meth:`DftConfig.make_executor` or the CLI for that);
    * ``config.result_cache`` memoizes per-testcase dynamic results
      across runs (:meth:`~repro.exec.cache.DynamicResultCache.resolve`)
      — only testcases missing from the cache are executed;
      the merged result is identical either way because each testcase
      runs on its own fresh cluster;
    * ``config.engine`` selects the TDF execution engine for the
      dynamic-stage simulations (``"auto"``/``"block"``/``"interp"``;
      see :mod:`repro.tdf.engine`).  Engines are bit-identical, so
      coverage reports and cached dynamic results do not depend on the
      choice.

    The config is the only configuration path: there are no per-call
    keyword knobs.
    """
    from ..analysis.cluster_analysis import analyze_cluster
    # Unused, but importing the instrument package before the static
    # stage fixes when the cyclic GC runs: importing it later left
    # more per-testcase cluster garbage uncollected (peak RSS +0.3 MB).
    from ..instrument.runner import DynamicAnalyzer  # noqa: F401

    cfg = config if config is not None else DftConfig()
    tel = cfg.telemetry if cfg.telemetry is not None else get_telemetry()
    if not tel.enabled:
        # Private session: stage spans only, for the ``timings`` view.
        # Kernel-level hooks key off the *global* telemetry and stay off.
        tel = Telemetry()

    def counted_factory():
        tel.metrics.counter("pipeline.cluster_builds").inc()
        return cluster_factory()

    with tel.span("pipeline", system=suite.name, testcases=len(suite)):
        with tel.span("static") as span_static:
            static = analyze_cluster(counted_factory(), telemetry=tel)
        with tel.span("dynamic") as span_dynamic:
            dynamic = _run_dynamic(counted_factory, static, suite, cfg, tel)
        with tel.span("coverage") as span_coverage:
            coverage = CoverageResult(static, dynamic)
            # Touch the aggregate numbers so the 'coverage' timing is honest.
            coverage.class_coverage()
    result = PipelineResult(
        static=static,
        dynamic=dynamic,
        coverage=coverage,
        spans={
            "static": span_static,
            "dynamic": span_dynamic,
            "coverage": span_coverage,
        },
        telemetry=tel,
    )
    history = cfg.run_history()
    if history is not None:
        history.append(run_record(cfg, suite, result))
    return result


def run_record(
    cfg: DftConfig, suite: TestSuite, result: PipelineResult
) -> Dict[str, Any]:
    """The ``run`` history record of one pipeline run (the ledger entry
    and the ``run`` job payload)."""
    from ..obs.store import build_record

    return build_record(
        "run",
        system=suite.name,
        fingerprint=result.static.fingerprint,
        config_hash=cfg.config_hash(),
        suite_names=[tc.name for tc in suite],
        coverage=result.coverage,
        telemetry=result.telemetry,
    )


def _run_dynamic(
    cluster_factory: "ClusterFactory",
    static: "StaticAnalysisResult",
    suite: TestSuite,
    cfg: DftConfig,
    tel: Telemetry,
) -> "DynamicResult":
    """Execute the dynamic stage through ``cfg``'s backend and cache.

    Cached testcases are skipped entirely; the remainder goes through
    ``cfg.executor`` (or the serial runner).  The merged
    ``per_testcase`` map always follows suite order, independent of
    backend, worker count and cache population.
    """
    from ..exec.base import SerialExecutor
    from ..exec.cache import DynamicResultCache
    from ..instrument.runner import DynamicResult

    backend = cfg.executor if cfg.executor is not None else SerialExecutor()
    by_name = {tc.name: tc for tc in suite}
    counted = tel.enabled and cfg.result_cache is not None

    def simulate(missing):
        if counted:
            tel.metrics.counter("exec.result_cache_misses").inc(len(missing))
        pending = TestSuite(suite.name, [by_name[name] for name in missing])
        return backend.run_suite(
            cluster_factory, static, pending, warn=cfg.warn, telemetry=tel,
            engine=cfg.engine,
        ).per_testcase

    cache = cfg.result_cache if cfg.result_cache is not None else DynamicResultCache()
    per_testcase, hits = cache.resolve(static.fingerprint, list(by_name), simulate)
    if counted and hits:
        tel.metrics.counter("exec.result_cache_hits").inc(hits)
    return DynamicResult(per_testcase)
