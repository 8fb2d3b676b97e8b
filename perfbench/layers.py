"""Per-layer attribution for the traced run.

The program already opens spans for its stages (``pipeline``,
``static``, ``dynamic``, ``dynamic.match``, ``coverage``,
``tdf.simulate``, ``mutation.baseline``, ``mutation.mutant``, ...) and
counts work in :mod:`repro.obs` counters.  :func:`install_spans` adds
benchmark-side spans around the public entry points that have none, by
rebinding them in every ``repro`` module that holds them; the spans
only record while a :func:`repro.obs.telemetry_session` is active.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Spans opened on
one thread nest, so the self times of one op never sum to more than the
op's wall time; ``run.py`` checks that on every traced run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from metrics import PER_LAYER

#: ``(module, attribute path, span name)`` of every benchmark-side span.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.tdf.engine.compiler", "compile_program", "tdf.compile"),
    ("repro.tdf.scheduler", "elaborate", "tdf.elaborate"),
    ("repro.tdf.simulator", "Simulator.finish", "tdf.finish"),
    ("repro.instrument.instrumenter", "instrument_processing",
     "instrument.instrument"),
    ("repro.analysis.cluster_analysis", "analyze_cluster", "analysis.static"),
    ("repro.analysis.subsume", "analyze_subsumption", "analysis.subsume"),
    ("repro.systems.sensor", "SenseTop.__init__", "core.cluster_build"),
    ("repro.systems.window_lifter", "WindowLifterTop.__init__",
     "core.cluster_build"),
    ("repro.systems.buck_boost", "BuckBoostTop.__init__", "core.cluster_build"),
    ("repro.systems.riscv_platform", "RiscvPlatformTop.__init__",
     "core.cluster_build"),
    ("repro.core.coverage", "CoverageResult.__init__", "core.coverage"),
    ("repro.core.coverage", "CoverageResult.class_coverage", "core.coverage"),
    ("repro.core.report", "format_summary", "core.coverage"),
    ("repro.exec.base", "SerialExecutor.run_suite", "exec.run_suite"),
    ("repro.mutation.operators", "generate_mutants",
     "mutation.generate_mutants"),
    ("repro.mutation.executor", "traces_diverge", "mutation.divergence"),
    ("repro.generation.generate", "_Evaluator.run", "generation.evaluate"),
    ("repro.generation.fitness", "association_fitness", "generation.fitness"),
    ("repro.generation.fitness", "graded_fitness", "generation.fitness"),
    ("repro.service.client", "healthz", "service.http"),
    ("repro.service.client", "submit_job", "service.http"),
    ("repro.service.client", "job_status", "service.http"),
    ("repro.service.client", "job_result", "service.http"),
)

#: Self-time metric -> the span names (program's and benchmark's) it sums.
SELF_TIME_SPANS: Dict[str, Tuple[str, ...]] = {
    "tdf.simulate_s": ("tdf.simulate", "tdf.finish"),
    "tdf.compile_s": ("tdf.compile",),
    "tdf.elaborate_s": ("tdf.elaborate",),
    "instrument.instrument_s": ("instrument.instrument",),
    "instrument.match_s": ("dynamic.match",),
    "analysis.static_s": ("analysis.static",),
    "analysis.subsume_s": ("analysis.subsume",),
    "core.cluster_build_s": ("core.cluster_build",),
    "core.coverage_s": ("coverage", "core.coverage"),
    "exec.run_suite_s": ("exec.run_suite",),
    "mutation.generate_mutants_s": ("mutation.generate_mutants",),
    "mutation.baseline_s": ("mutation.baseline",),
    "mutation.mutant_s": ("mutation.mutant",),
    "mutation.divergence_s": ("mutation.divergence",),
    "generation.evaluate_s": ("generation.evaluate",),
    "generation.fitness_s": ("generation.fitness",),
    "service.http_s": ("service.http",),
}

#: The per-layer metrics that are self times; one workload's sum to at
#: most the traced op wall (``obs.attributed_share`` <= 1).
SELF_TIME_METRICS: Tuple[str, ...] = tuple(SELF_TIME_SPANS)

#: Name of the benchmark's root span around each timed op.
OP_SPAN = "bench.op"


def _spanned(fn: Callable, name: str, get_telemetry: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        tel = get_telemetry()
        if not tel.enabled:
            return fn(*args, **kwargs)
        with tel.span(name):
            return fn(*args, **kwargs)

    return traced


def install_spans() -> Callable[[], None]:
    """Wrap every :data:`SPAN_TARGETS` entry; returns the undo function.

    A module-level function is rebound in every loaded ``repro`` module
    that holds it (callers that imported it by name see the wrapper
    too); a method is rebound on its class.
    """
    from repro.obs import get_telemetry

    for module_name, _, _ in SPAN_TARGETS:
        importlib.import_module(module_name)
    undo: List[Tuple[Any, str, Any]] = []
    for module_name, path, span_name in SPAN_TARGETS:
        owner: Any = sys.modules[module_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = _spanned(original, span_name, get_telemetry)
        if parents:
            holders = [owner]
        else:
            holders = [
                module for name, module in list(sys.modules.items())
                if name.split(".")[0] == "repro" and module is not None
                and getattr(module, attr, None) is original
            ]
        for holder in holders:
            undo.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def uninstall() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return uninstall


# -- span arithmetic -----------------------------------------------------------


def _covered(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``children``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in children if e > start and s < end
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(records: Sequence[Mapping[str, Any]]) -> Dict[int, float]:
    """Self time in seconds of every span, keyed by span id.

    ``records`` are :meth:`repro.obs.Telemetry.span_records` dicts
    (``id``, ``parent``, ``ts_us``, ``dur_us``).
    """
    children: Dict[Any, List[Tuple[float, float]]] = defaultdict(list)
    for rec in records:
        start = rec["ts_us"] * 1e-6
        children[rec["parent"]].append((start, start + rec["dur_us"] * 1e-6))
    out: Dict[int, float] = {}
    for rec in records:
        start = rec["ts_us"] * 1e-6
        end = start + rec["dur_us"] * 1e-6
        out[rec["id"]] = (end - start) - _covered(start, end, children[rec["id"]])
    return out


def _under_op(records: Sequence[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """The records inside a :data:`OP_SPAN` root, roots included."""
    children: Dict[Any, List[Mapping[str, Any]]] = defaultdict(list)
    for rec in records:
        children[rec["parent"]].append(rec)
    out: List[Mapping[str, Any]] = []
    stack = [rec for rec in records if rec["name"] == OP_SPAN]
    while stack:
        rec = stack.pop()
        out.append(rec)
        stack.extend(children[rec["id"]])
    return out


def _ancestor_named(rec, by_id, name: str) -> bool:
    parent = by_id.get(rec["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False


def _counter(metrics: Sequence[Mapping[str, Any]], name: str, **labels: str) -> float:
    return sum(
        rec["value"] for rec in metrics
        if rec["kind"] == "counter" and rec["name"] == name
        and all(rec["labels"].get(k) == v for k, v in labels.items())
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: Sequence[Mapping[str, Any]],
    metrics: Sequence[Mapping[str, Any]],
    extras: Mapping[str, float] = {},
) -> Dict[str, float]:
    """Every per-layer metric except ``obs.tracing_overhead``.

    ``spans``/``metrics`` are one traced session's span and metric
    records; additive values are per op (the session's
    :data:`OP_SPAN` count).  ``extras`` supplies the metrics read off
    the ops' results (ratios, service counters); their values are
    taken as given.
    """
    spans = _under_op(spans)
    roots = [rec for rec in spans if rec["name"] == OP_SPAN]
    ops = len(roots) or 1
    selfs = self_times(spans)
    by_name: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for rec in spans:
        by_name[rec["name"]] += selfs[rec["id"]]
        counts[rec["name"]] += 1
    out: Dict[str, float] = {
        m["name"]: 0.0 for m in PER_LAYER if m["name"] != "obs.tracing_overhead"
    }
    for metric, names in SELF_TIME_SPANS.items():
        out[metric] = sum(by_name[n] for n in names) / ops

    periods = _counter(metrics, "tdf.periods")
    out["tdf.periods"] = periods / ops
    out["tdf.periods_per_s"] = _ratio(periods / ops, out["tdf.simulate_s"])
    out["tdf.block_share"] = _ratio(
        _counter(metrics, "tdf.engine_block_firings"),
        _counter(metrics, "tdf.engine_compiled_firings"),
    )
    out["tdf.fallbacks_instrumented"] = (
        _counter(metrics, "tdf.engine_fallbacks", reason="instrumented") / ops
    )
    hits = _counter(metrics, "tdf.schedule_cache_hits")
    out["tdf.schedule_cache_hit_ratio"] = _ratio(
        hits, hits + _counter(metrics, "tdf.schedule_cache_misses")
    )
    out["instrument.probe_events"] = sum(
        _counter(metrics, f"instrument.{kind}")
        for kind in ("var_events", "port_writes", "port_reads")
    ) / ops
    out["instrument.match_events_per_s"] = _ratio(
        _counter(metrics, "instrument.match_events_scanned") / ops,
        out["instrument.match_s"],
    )
    hits = _counter(metrics, "analysis.cache_hits")
    out["analysis.cache_hit_ratio"] = _ratio(
        hits, hits + _counter(metrics, "analysis.cache_misses")
    )
    out["core.cluster_builds"] = counts["core.cluster_build"] / ops
    hits = _counter(metrics, "exec.result_cache_hits")
    out["exec.result_cache_hit_ratio"] = _ratio(
        hits, hits + _counter(metrics, "exec.result_cache_misses")
    )
    by_id = {rec["id"]: rec for rec in spans}
    mutant_sims = sum(
        1 for rec in spans
        if rec["name"] == "tdf.simulate"
        and _ancestor_named(rec, by_id, "mutation.mutant")
    )
    out["mutation.sims_per_mutant"] = _ratio(
        mutant_sims, counts["mutation.mutant"]
    )
    out["generation.simulations"] = (
        _counter(metrics, "generation.simulations") / ops
    )
    out["obs.traced_op_s"] = sum(rec["dur_us"] * 1e-6 for rec in roots) / ops
    for name, value in extras.items():
        out[name] = float(value)
    out["obs.attributed_share"] = _ratio(
        sum(out[name] for name in SELF_TIME_METRICS), out["obs.traced_op_s"]
    )
    return out


def tracing_overhead(runs: Sequence[Sequence[Mapping[str, Any]]]) -> float:
    """Median traced / untraced wall over adjacent op pairs.

    ``runs`` holds one list of op records (``wall``, ``traced``) per
    process or service round, in issue order, alternating traced and
    untraced.  Each untraced op is paired with the traced op right after
    it in the same run, so a run's first op, with cold caches, is in no
    pair.  Returns 0 when no pair was measured.
    """
    ratios = [
        after["wall"] / before["wall"]
        for ops in runs
        for before, after in zip(ops, ops[1:])
        if not before["traced"] and after["traced"] and before["wall"] > 0
    ]
    return statistics.median(ratios) if ratios else 0.0
