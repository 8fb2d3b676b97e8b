"""Performance benchmark machinery (``repro-dft bench``).

Measures the PR-2 optimisation layers against their unoptimised
baselines and emits one machine-readable JSON document (the
``BENCH_PR*.json`` baselines checked into the repo root):

* **campaign** — the iterative-refinement campaign run cold (every
  iteration re-executes its full cumulative suite) versus with the
  per-testcase :class:`~repro.exec.DynamicResultCache` (each distinct
  testcase simulated once).  This is the headline number: campaigns
  re-run 86 testcase executions for 26 distinct testcases (window
  lifter), so the cache legitimately collapses most of the work.
* **parallel** — the same testsuite through :class:`SerialExecutor` and
  :class:`ProcessExecutor`, with a result-equality check.  The speedup
  is reported honestly: on a single-CPU host it hovers around (or
  below) 1.0 and only multi-core machines benefit.
* **static_cache** — ``analyze_cluster`` cold versus memoized
  (:mod:`repro.analysis.cache`).
* **schedule_cache** — a dynamic-TDF simulation (the window lifter's
  fine/coarse timestep zone switching), reporting the kernel's
  schedule-cache hit/miss counts.
* **engine** — the PR-3 headline: the same cold campaign under the
  per-firing interpreter versus the compiled block engine
  (:mod:`repro.tdf.engine`), with a records-identical check and a
  byte-identical coverage comparison across every bundled system.
* **mutation** — a capped mutation-analysis run on the seeded random
  cluster (:mod:`repro.mutation`), reporting mutants/second and
  checking the kill matrix is byte-identical across engines.
* **generation** — the PR-5 headline: coverage-guided testcase
  generation (:mod:`repro.generation`) on the buck-boost and
  window-lifter base suites, reporting associations closed per second
  and per simulation under a fixed simulation budget.

Every section records its own wall-clock seconds, so regressions are
attributable to a layer, not just "the benchmark got slower".
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from .core import DftConfig, run_dft
from .exec import ProcessExecutor, SerialExecutor
from .testing import TestSuite

#: CLI/benchmark registry: system name -> (factory_ref, suite_ref).
#: Only systems whose suite is rebuildable by reference can run under
#: the process executor.
PARALLEL_REFS: Dict[str, Dict[str, str]] = {
    "sensor": {
        "factory": "repro.systems.sensor:SenseTop",
        "suite": "repro.systems.sensor:paper_testcases",
    },
    "window_lifter": {
        "factory": "repro.systems.window_lifter:WindowLifterTop",
        "suite": "repro.systems.campaigns:window_lifter_all_testcases",
    },
    "buck_boost": {
        "factory": "repro.systems.buck_boost:BuckBoostTop",
        "suite": "repro.systems.campaigns:buck_boost_all_testcases",
    },
    "riscv_platform": {
        "factory": "repro.systems.riscv_platform:RiscvPlatformTop",
        "suite": "repro.systems.riscv_platform:paper_style_testcases",
    },
}


def _timed(fn: Callable[[], Any]) -> tuple:
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _records_equal(a, b) -> bool:
    """Compare campaign rows field-by-field (coverage objects excluded)."""
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def bench_campaign(system: str = "buck_boost", workers: int = 1) -> Dict[str, Any]:
    """Cold versus result-cached campaign; identical Table-II rows."""
    from .systems import campaigns

    builders = {
        "window_lifter": campaigns.window_lifter_campaign,
        "buck_boost": campaigns.buck_boost_campaign,
    }
    builder = builders[system]

    cold = builder(workers=workers)
    cold.reuse_dynamic_results = False
    cold_records, cold_seconds = _timed(cold.run)

    cached = builder(workers=workers)
    cached_records, cached_seconds = _timed(cached.run)

    executions_cold = sum(
        len(cold.suite_for(i)) for i in range(cold.iteration_count)
    )
    distinct = len(cold.suite_for(cold.iteration_count - 1))
    return {
        "system": system,
        "workers": workers,
        "iterations": cold.iteration_count,
        "testcase_executions_cold": executions_cold,
        "testcase_executions_cached": distinct,
        "cold_seconds": cold_seconds,
        "cached_seconds": cached_seconds,
        "speedup": cold_seconds / cached_seconds if cached_seconds else None,
        "records_identical": _records_equal(cold_records, cached_records),
    }


def bench_parallel(system: str = "sensor", workers: int = 2) -> Dict[str, Any]:
    """Serial versus process-pool dynamic stage; identical coverage."""
    from .exec.refs import resolve_ref

    refs = PARALLEL_REFS[system]
    factory = resolve_ref(refs["factory"])
    suite = TestSuite(system, resolve_ref(refs["suite"])())

    serial_result, serial_seconds = _timed(
        lambda: run_dft(factory, suite, DftConfig(executor=SerialExecutor()))
    )
    parallel_result, parallel_seconds = _timed(
        lambda: run_dft(
            factory,
            suite,
            DftConfig(
                executor=ProcessExecutor(refs["factory"], refs["suite"], workers)
            ),
        )
    )
    from .core import format_summary

    identical = (
        serial_result.dynamic.exercised_keys()
        == parallel_result.dynamic.exercised_keys()
        and format_summary(serial_result.coverage)
        == format_summary(parallel_result.coverage)
    )
    return {
        "system": system,
        "workers": workers,
        "testcases": len(suite),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds if parallel_seconds else None,
        "identical": identical,
        "cpus": os.cpu_count(),
    }


def bench_static_cache(system: str = "window_lifter") -> Dict[str, Any]:
    """Static analysis cold versus served from a fresh memo."""
    from .analysis import StaticAnalysisCache, analyze_cluster
    from .exec.refs import resolve_ref

    factory = resolve_ref(PARALLEL_REFS[system]["factory"])
    cache = StaticAnalysisCache()
    cold, cold_seconds = _timed(lambda: analyze_cluster(factory(), cache=cache))
    warm, warm_seconds = _timed(lambda: analyze_cluster(factory(), cache=cache))
    return {
        "system": system,
        "cold_seconds": cold_seconds,
        "cached_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else None,
        "hits": cache.hits,
        "misses": cache.misses,
        "identical": {a.key for a in cold.associations}
        == {a.key for a in warm.associations},
    }


def bench_schedule_cache() -> Dict[str, Any]:
    """Dynamic-TDF simulation exercising the kernel schedule cache.

    Uses the window lifter with an obstacle parked in the fine-timestep
    zone: the position controller keeps flipping between the coarse and
    fine timestep, so after the first flip in each direction every
    schedule change is a cache hit.
    """
    from .systems.window_lifter import BTN_NONE, BTN_UP, WindowLifterTop
    from .tdf import sec
    from .tdf.simulator import Simulator

    top = WindowLifterTop()
    top.apply_buttons(lambda t: BTN_UP if t < 1.9 else BTN_NONE)
    top.apply_obstacle(lambda t: 90.0)
    sim = Simulator(top)
    _, seconds = _timed(lambda: sim.run(sec(2)))
    stats = sim.schedule_cache_stats
    return {
        "system": "window_lifter",
        "scenario": "obstacle in fine-timestep zone (dynamic TDF)",
        "seconds": seconds,
        "schedule_changes": sim.reelaborations,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "hit_rate": stats["hit_rate"],
    }


def bench_engine(system: str = "buck_boost") -> Dict[str, Any]:
    """Cold campaign: per-firing interpreter versus block engine.

    Both campaigns re-execute every testcase of every iteration
    (``reuse_dynamic_results=False``) so the whole dynamic stage —
    instrumentation, simulation, event matching — is measured, not the
    result cache.  ``coverage_identical`` additionally runs every
    bundled system once per engine and compares the machine-readable
    coverage exports byte for byte.
    """
    from .core import coverage_to_dict
    from .exec.refs import resolve_ref
    from .systems import campaigns

    builders = {
        "window_lifter": campaigns.window_lifter_campaign,
        "buck_boost": campaigns.buck_boost_campaign,
    }
    builder = builders[system]

    interp = builder(engine="interp")
    interp.reuse_dynamic_results = False
    interp_records, interp_seconds = _timed(interp.run)

    block = builder(engine="block")
    block.reuse_dynamic_results = False
    block_records, block_seconds = _timed(block.run)

    coverage_identical: Dict[str, bool] = {}
    for name, refs in PARALLEL_REFS.items():
        factory = resolve_ref(refs["factory"])

        def blob(engine: str) -> str:
            suite = TestSuite(name, resolve_ref(refs["suite"])())
            result = run_dft(factory, suite, DftConfig(engine=engine))
            return json.dumps(coverage_to_dict(result.coverage), sort_keys=True)

        coverage_identical[name] = blob("interp") == blob("block")

    return {
        "system": system,
        "iterations": interp.iteration_count,
        "testcase_executions": sum(
            len(interp.suite_for(i)) for i in range(interp.iteration_count)
        ),
        "interp_seconds": interp_seconds,
        "block_seconds": block_seconds,
        "speedup": interp_seconds / block_seconds if block_seconds else None,
        "records_identical": _records_equal(interp_records, block_records),
        "coverage_identical": coverage_identical,
    }


def bench_mutation(
    cluster_seed: int = 7, max_mutants: int = 15, seed: int = 0
) -> Dict[str, Any]:
    """Capped mutation run on the seeded random cluster.

    Reports throughput (mutants per second over the full differential
    suite) and re-runs the same sample under the other engine to check
    that the canonical kill matrix is byte-identical.
    """
    from .mutation import kill_matrix_bytes, run_mutation

    def once(engine: str):
        return _timed(
            lambda: run_mutation(
                "repro.testing.generate:random_cluster_factory",
                "repro.testing.generate:random_suite",
                DftConfig(seed=seed, engine=engine),
                factory_args=(cluster_seed,),
                suite_args=(cluster_seed,),
                max_mutants=max_mutants,
            )
        )

    interp_run, interp_seconds = once("interp")
    block_run, block_seconds = once("block")
    return {
        "system": "random",
        "cluster_seed": cluster_seed,
        "generated": interp_run.generated,
        "sampled": len(interp_run.specs),
        "viable": interp_run.viable,
        "killed": interp_run.killed,
        "mutation_score": interp_run.mutation_score,
        "interp_seconds": interp_seconds,
        "block_seconds": block_seconds,
        "mutants_per_second": (
            len(interp_run.specs) / interp_seconds if interp_seconds else None
        ),
        "kill_matrix_identical": kill_matrix_bytes(interp_run)
        == kill_matrix_bytes(block_run),
    }


def bench_generation(
    budget_simulations: int = 40, seed: int = 0
) -> Dict[str, Any]:
    """Coverage-guided generation throughput on both case-study VPs.

    Runs :func:`repro.generation.generate_suite` on each system's *base*
    suite under a fixed simulation budget and reports the headline
    numbers: associations closed per executed simulation (search
    quality) and per wall-clock second (end-to-end throughput,
    including the baseline and verification pipeline runs).
    """
    from .generation import generate_suite
    from .systems import campaigns
    from .systems.buck_boost import BuckBoostTop
    from .systems.window_lifter import WindowLifterTop

    cases = {
        "buck_boost": (BuckBoostTop, campaigns.buck_boost_base_suite),
        "window_lifter": (WindowLifterTop, campaigns.window_lifter_base_suite),
    }
    cfg = DftConfig(seed=seed, budget_simulations=budget_simulations)
    systems: Dict[str, Any] = {}
    for system, (factory, base_builder) in cases.items():
        base = TestSuite(system, base_builder())
        result, seconds = _timed(
            lambda: generate_suite(factory, base, system, cfg)
        )
        closed = len(result.closed)
        systems[system] = {
            "targets": len(result.targets),
            "closed": closed,
            "generated_testcases": len(result.generated),
            "simulations": result.simulations,
            "memo_hits": result.memo_hits,
            "stop_reason": result.stop_reason,
            "seconds": seconds,
            "closed_per_second": closed / seconds if seconds else None,
            "closed_per_simulation": (
                closed / result.simulations if result.simulations else None
            ),
        }
    return {
        "seed": seed,
        "budget_simulations": budget_simulations,
        "strategy": "mutation",
        "systems": systems,
    }


def bench_directed(
    budget_simulations: int = 32, seed: int = 0
) -> Dict[str, Any]:
    """The PR-9 headline: frontier targets + path-guided search.

    Same shape as :func:`bench_generation`, but the search runs in
    ``--targets frontier`` mode (subsumption-reduced target set) with
    the ``guided`` strategy and graded du-path fitness, under a
    *smaller* simulation budget than the PR-5 run (40).  The gate is
    that the directed run still closes at least as many associations
    on the buck-boost converter as the undirected PR-5 baseline (11)
    while executing fewer simulations.  ``closed_total`` counts the
    searched targets plus the subsumed associations that closed
    opportunistically when their subsumers did;
    ``strong_closed_total`` is the Strong-class slice of the full
    association set, measured on the verification pipeline's
    before/after coverage.
    """
    from .core.associations import AssocClass
    from .generation import generate_suite
    from .systems import campaigns
    from .systems.buck_boost import BuckBoostTop
    from .systems.window_lifter import WindowLifterTop

    cases = {
        "buck_boost": (BuckBoostTop, campaigns.buck_boost_base_suite),
        "window_lifter": (WindowLifterTop, campaigns.window_lifter_base_suite),
    }
    cfg = DftConfig(seed=seed, budget_simulations=budget_simulations)
    systems: Dict[str, Any] = {}
    for system, (factory, base_builder) in cases.items():
        base = TestSuite(system, base_builder())
        result, seconds = _timed(
            lambda: generate_suite(
                factory, base, system, cfg,
                strategy="guided", target_mode="frontier",
            )
        )

        def _strong(coverage) -> int:
            cc = coverage.class_coverage()[AssocClass.STRONG]
            return cc.covered

        closed = len(result.closed)
        closed_total = closed + result.subsumed_closed
        systems[system] = {
            "frontier_targets": len(result.targets),
            "subsumed_targets": result.subsumed_targets,
            "closed": closed,
            "subsumed_closed": result.subsumed_closed,
            "closed_total": closed_total,
            "strong_closed_total": (
                _strong(result.coverage_after) - _strong(result.coverage_before)
            ),
            "generated_testcases": len(result.generated),
            "simulations": result.simulations,
            "memo_hits": result.memo_hits,
            "stop_reason": result.stop_reason,
            "seconds": seconds,
            "closed_per_second": closed_total / seconds if seconds else None,
            "closed_per_simulation": (
                closed_total / result.simulations if result.simulations else None
            ),
        }
    return {
        "seed": seed,
        "budget_simulations": budget_simulations,
        "strategy": "guided",
        "targets_mode": "frontier",
        "baseline": {"bench": "BENCH_PR5.json", "buck_boost_closed": 11,
                     "budget_simulations": 40},
        "systems": systems,
    }


def run_benchmarks(
    workers: int = 2,
    campaign_system: str = "buck_boost",
    parallel_system: str = "sensor",
    sections: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Run the selected benchmark sections and assemble the JSON payload."""
    wanted = sections or [
        "campaign", "parallel", "static_cache", "schedule_cache", "engine",
        "mutation", "generation", "directed",
    ]
    payload: Dict[str, Any] = {
        "benchmark": "repro-dft pipeline performance",
        "host": {
            "python": platform.python_version(),
            "platform": sys.platform,
            "cpus": os.cpu_count(),
        },
    }
    if "campaign" in wanted:
        payload["campaign"] = bench_campaign(campaign_system, workers=1)
    if "parallel" in wanted:
        payload["parallel"] = bench_parallel(parallel_system, workers=workers)
    if "static_cache" in wanted:
        payload["static_cache"] = bench_static_cache()
    if "schedule_cache" in wanted:
        payload["schedule_cache"] = bench_schedule_cache()
    if "engine" in wanted:
        payload["engine"] = bench_engine(campaign_system)
    if "mutation" in wanted:
        payload["mutation"] = bench_mutation()
    if "generation" in wanted:
        payload["generation"] = bench_generation()
    if "directed" in wanted:
        payload["directed"] = bench_directed()
    return payload


def write_benchmarks(path: str, payload: Dict[str, Any]) -> None:
    """Pretty-print the payload to ``path`` (trailing newline included)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
