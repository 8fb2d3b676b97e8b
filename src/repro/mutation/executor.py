"""Differential mutant execution (in-process or through a task backend).

The oracle is a *trace diff*: every mutant runs every testcase of the
suite, and each testcase's traced oracle signals are compared
sample-by-sample against the unmutated baseline while it simulates.
A testcase runs until its first divergence: the comparison is made at
every engine window (every period on the interpreter), and the run
stops at the first window whose new rows differ from the baseline.
A mutant is

* **killed** by a testcase when the traces diverge beyond the
  tolerance (or the mutated run raises at simulation time); the first
  killing testcase, and the earliest diverging oracle row or the
  exception class, are its :class:`KillSite`;
* **nonviable** when it cannot even be applied or elaborated
  (schedule deadlock, rate inconsistency) — it drops out of the
  mutation-score denominator;
* **survived** when every testcase reproduces the baseline exactly.

Determinism is the design driver: verdicts depend only on
``(factory, suite, spec, engine, tolerance)`` — never on wall-clock —
so the kill matrix is byte-identical across ``--workers`` counts and
across the interpreter and the compiled block engine (which are
bit-identical by construction).  The per-mutant ``budget_seconds``
therefore only *flags* slow mutants (``timed_out`` + the
``mutation.timeout`` counter); it never truncates their verdicts.

When :meth:`repro.core.DftConfig.make_executor` picks a task-running
backend for the pending mutants, mutation runs through the same shard
tasks as the dynamic stage
(:mod:`repro.exec.task`): the mutant indices are striped
(:func:`repro.exec.base.round_robin_shards`) into ``"mutants"`` tasks
that the backend — a process pool or a remote worker fleet — maps
through :func:`~repro.exec.task.run_task`.  Each task rebuilds the
factory and suite from importable references, regenerates the
identical spec list and baseline traces, runs its mutants, and replies
with :meth:`MutantOutcome.to_dict` entries; the parent re-attaches the
specs and merges by index.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing-only import avoids a cycle
    from ..core.config import DftConfig
from ..exec.base import round_robin_shards
from ..exec.refs import resolve_ref
from ..exec.task import TaskExecutor, fold_replies, resolve_factory
from ..obs import get_telemetry
from ..tdf import Simulator, Tracer
from ..tdf.cluster import Cluster
from ..testing.testcase import TestCase
from .operators import (
    ALL_OPERATORS,
    MutantSpec,
    apply_mutant,
    generate_mutants,
)

#: Per-signal sample rows, as recorded by the tracer.
TraceMap = Dict[str, List[tuple]]

#: Default per-mutant wall budget before the ``timed_out`` flag is set.
DEFAULT_BUDGET_SECONDS = 30.0


@dataclass(frozen=True)
class KillSite:
    """Where a mutant was first killed.

    ``testcase`` is the first killing testcase in suite order.  A
    divergence names the earliest diverging oracle ``signal`` and that
    row's time (``time_fs``; ``None`` for an output-delay priming row),
    ties going to oracle order; a runtime crash names the exception
    class (``error``) instead.
    """

    testcase: str
    signal: Optional[str] = None
    time_fs: Optional[int] = None
    error: Optional[str] = None

    def to_dict(self) -> dict:
        if self.error is not None:
            return {"testcase": self.testcase, "error": self.error}
        return {
            "testcase": self.testcase,
            "signal": self.signal,
            "time_fs": self.time_fs,
        }

    @classmethod
    def from_dict(cls, entry: dict) -> "KillSite":
        return cls(
            entry["testcase"],
            entry.get("signal"),
            entry.get("time_fs"),
            entry.get("error"),
        )


@dataclass(frozen=True)
class MutantOutcome:
    """The verdict for one mutant, independent of execution backend
    (``nonviable_reason``: the class of the exception that rejected a
    nonviable mutant)."""

    spec: MutantSpec
    status: str  # "killed" | "survived" | "nonviable"
    killed_by: Tuple[str, ...]  # killing testcases, in suite order
    timed_out: bool
    seconds: float
    killed_at: Optional[KillSite] = None
    nonviable_reason: Optional[str] = None

    def to_dict(self) -> dict:
        """The JSON-ready verdict, without the spec (a task reply entry
        and a history ledger ``kill_matrix`` entry)."""
        return {
            "status": self.status,
            "killed_by": list(self.killed_by),
            "timed_out": self.timed_out,
            "seconds": self.seconds,
            "killed_at": self.killed_at.to_dict() if self.killed_at else None,
            "nonviable_reason": self.nonviable_reason,
        }

    @classmethod
    def from_dict(cls, spec: MutantSpec, entry: dict) -> "MutantOutcome":
        """Re-attach ``spec`` to a :meth:`to_dict` entry (an older ledger
        entry without timing, site or reason keys restores their
        defaults)."""
        site = entry.get("killed_at")
        return cls(
            spec,
            entry["status"],
            tuple(entry.get("killed_by") or ()),
            bool(entry.get("timed_out", False)),
            float(entry.get("seconds", 0.0)),
            KillSite.from_dict(site) if site else None,
            entry.get("nonviable_reason"),
        )


@dataclass
class MutationRun:
    """The full result of one mutation-analysis run."""

    factory_ref: str
    suite_ref: str
    operators: List[str]
    seed: int
    engine: str
    workers: int
    tolerance: float
    generated: int
    specs: List[MutantSpec]
    outcomes: List[MutantOutcome]
    testcase_names: List[str]
    oracle_signals: List[str]
    #: Static fingerprint of the unmutated cluster.
    fingerprint: str

    # -- aggregate counts ----------------------------------------------------

    @property
    def viable(self) -> int:
        return sum(1 for o in self.outcomes if o.status != "nonviable")

    @property
    def killed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "killed")

    @property
    def survived(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "survived")

    @property
    def nonviable(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "nonviable")

    @property
    def timeouts(self) -> int:
        return sum(1 for o in self.outcomes if o.timed_out)

    @property
    def mutation_score(self) -> float:
        """Killed fraction of the viable mutants (full suite)."""
        return self.score_for(self.testcase_names)

    def score_for(self, testcase_names: Sequence[str]) -> float:
        """Mutation score of the sub-suite ``testcase_names``.

        Computed from the per-testcase kill matrix, so any sub-suite
        can be scored without re-running a single mutant.
        """
        subset = set(testcase_names)
        viable = killed = 0
        for outcome in self.outcomes:
            if outcome.status == "nonviable":
                continue
            viable += 1
            if subset.intersection(outcome.killed_by):
                killed += 1
        if viable == 0:
            return 0.0
        return killed / viable


def _oracle_names(cluster: Cluster, requested: Optional[Sequence[str]]) -> List[str]:
    """The signals the differential oracle traces.

    Explicit request wins; then the system's declared
    ``MUTATION_ORACLE_SIGNALS`` (observable boundary outputs — a
    boundary oracle is what makes criterion comparison meaningful);
    finally every driven signal (small generated clusters).
    """
    if requested:
        names = list(requested)
    else:
        declared = getattr(cluster, "MUTATION_ORACLE_SIGNALS", None)
        names = list(declared) if declared else [
            s.name for s in cluster.signals if s.driver is not None
        ]
    for name in names:
        if name not in cluster._signals:
            raise ValueError(
                f"oracle signal {name!r} does not exist in cluster "
                f"{cluster.name!r}"
            )
    return names


# -- single simulations --------------------------------------------------------


def _attach_tracer(cluster: Cluster, oracle: Sequence[str]) -> Tracer:
    tracer = Tracer()
    for name in oracle:
        tracer.trace(cluster._signals[name], name)
    return tracer


def _run_baseline(
    factory: Callable[[], Cluster],
    tc: TestCase,
    oracle: Sequence[str],
    engine: str,
) -> TraceMap:
    cluster = factory()
    tc.apply(cluster)
    tracer = _attach_tracer(cluster, oracle)
    sim = Simulator(cluster, engine=engine)
    sim.run(tc.duration)
    sim.finish()
    return {name: tracer.samples(name) for name in oracle}


def compute_baselines(
    factory: Callable[[], Cluster],
    testcases: Sequence[TestCase],
    oracle: Sequence[str],
    engine: str,
) -> Dict[str, TraceMap]:
    """Reference traces of the unmutated system, one entry per testcase."""
    return {tc.name: _run_baseline(factory, tc, oracle, engine) for tc in testcases}


def _first_mismatch(
    rows_a: List[tuple], rows_b: List[tuple], tolerance: float
) -> Optional[int]:
    """Index of the first row where two sample lists differ, else ``None``.

    The row predicate of :func:`traces_diverge`: a shifted timestamp or
    a value apart by more than ``tolerance`` differs, NaN equals NaN (a
    mutant that reproduces the baseline NaN-for-NaN did not change
    behaviour), and a list that ends early differs at its end.
    """
    if rows_a == rows_b:
        return None
    for i, ((ta, va), (tb, vb)) in enumerate(zip(rows_a, rows_b)):
        if ta != tb:
            return i
        a_nan = isinstance(va, float) and va != va
        b_nan = isinstance(vb, float) and vb != vb
        if a_nan or b_nan:
            if a_nan != b_nan:
                return i
            continue
        if va == vb:
            continue
        try:
            if abs(va - vb) > tolerance:
                return i
        except TypeError:
            return i
    if len(rows_a) != len(rows_b):
        return min(len(rows_a), len(rows_b))
    return None


def traces_diverge(a: TraceMap, b: TraceMap, tolerance: float) -> bool:
    """Whether two trace maps differ beyond ``tolerance``.

    Any shape difference (missing signal, extra/missing samples,
    shifted timestamps) is a divergence; rows compare as in
    :func:`_first_mismatch`.
    """
    if a.keys() != b.keys():
        return True
    return any(
        _first_mismatch(rows, b[name], tolerance) is not None
        for name, rows in a.items()
    )


def _divergence_site(
    testcase: str,
    baseline: TraceMap,
    traces: TraceMap,
    oracle: Sequence[str],
    tolerance: float,
) -> KillSite:
    """The earliest diverging row of two diverging trace maps.

    Rows compare by index; the site is the first mismatching row of
    each signal (the mutant's row, or the baseline's where the mutant's
    trace ends early), earliest time first, ties in oracle order.
    """
    best: Optional[Tuple[Tuple[int, int], str, Optional[int]]] = None
    for order, name in enumerate(oracle):
        rows, ref = traces[name], baseline[name]
        i = _first_mismatch(ref, rows, tolerance)
        if i is None:
            continue
        t = (rows[i] if i < len(rows) else ref[i])[0]
        time_fs = None if t is None else t.femtoseconds
        key = (-1 if time_fs is None else time_fs, order)
        if best is None or key < best[0]:
            best = (key, name, time_fs)
    assert best is not None, "trace maps do not diverge"
    return KillSite(testcase, signal=best[1], time_fs=best[2])


def _kill_site(
    sim: Simulator,
    tracer: Tracer,
    tc: TestCase,
    baseline: TraceMap,
    oracle: Sequence[str],
    tolerance: float,
) -> Optional[KillSite]:
    """Run one mutated testcase until its first divergence.

    Returns where the testcase killed the mutant, or ``None`` when it
    reproduced the baseline.  After each engine window the rows added
    since the previous check are compared with the matching baseline
    slice, and the run stops at the first window that differs; the
    sliced compare kills exactly when the whole-trace compare would,
    except for a trace that stops short of the baseline, which the
    whole-trace check after an uninterrupted run catches.

    The site is the same on both engines.  A row's time lies in the
    period that emitted it and a block window commits whole periods
    (hoisted tokens of cut-off periods are rolled back before the
    tracer copies them), so wherever ``until`` runs both engines hold
    exactly the rows timed before it.  A crash first checks the rows
    emitted before it, so a divergence the interpreter would already
    have stopped at wins over the exception.  The block engine then
    also holds hoisted rows past the crash.  A module is hoisted only
    with its whole input cone and never with a registered processing
    (every AST mutant), so for an AST mutant those rows are unmutated,
    equal the baseline and add no divergence.  Inexact: a netlist
    mutant of a hoisted library element (its rows past the crash are
    mutated), and a crash inside a whole-window library block call.
    """
    cursor = dict.fromkeys(oracle, 0)
    found: List[KillSite] = []

    def diverged() -> bool:
        new = {name: tracer.samples(name, cursor[name]) for name in oracle}
        ref = {
            name: baseline[name][cursor[name]:cursor[name] + len(rows)]
            for name, rows in new.items()
        }
        if traces_diverge(ref, new, tolerance):
            found.append(_divergence_site(tc.name, ref, new, oracle, tolerance))
            return True
        for name, rows in new.items():
            cursor[name] += len(rows)
        return False

    try:
        sim.run(tc.duration, until=diverged)
        if found:
            return found[0]
        sim.finish()
    except Exception as exc:
        # The mutated behaviour crashed at runtime: observable failure,
        # so this testcase kills the mutant.
        if diverged():
            return found[0]
        return KillSite(tc.name, error=type(exc).__name__)
    traces = {name: tracer.samples(name) for name in oracle}
    if traces_diverge(baseline, traces, tolerance):
        return _divergence_site(tc.name, baseline, traces, oracle, tolerance)
    return None


def run_mutant(
    spec: MutantSpec,
    factory: Callable[[], Cluster],
    testcases: Sequence[TestCase],
    baselines: Dict[str, TraceMap],
    oracle: Sequence[str],
    engine: str,
    tolerance: float,
    budget_seconds: Optional[float] = DEFAULT_BUDGET_SECONDS,
) -> MutantOutcome:
    """Execute one mutant against the whole suite and classify it.

    Every testcase runs, each until its first divergence (see
    :func:`_kill_site`): the criterion-vs-score report needs the
    complete kill row, and the matrix must not depend on execution
    order or timing.  Surviving testcases run to completion.
    """
    t0 = time.perf_counter()
    killed_by: List[str] = []
    killed_at: Optional[KillSite] = None
    for tc in testcases:
        cluster = factory()
        try:
            apply_mutant(cluster, spec)
            tc.apply(cluster)
            tracer = _attach_tracer(cluster, oracle)
            sim = Simulator(cluster, engine=engine)
            sim.initialize()
        except Exception as exc:
            # The spec does not apply (MutantNotApplicable), or
            # elaboration rejected the mutated cluster: nonviable, and
            # deterministically so for every testcase of the suite.
            return MutantOutcome(
                spec, "nonviable", (), False, time.perf_counter() - t0,
                nonviable_reason=type(exc).__name__,
            )
        site = _kill_site(sim, tracer, tc, baselines[tc.name], oracle, tolerance)
        if site is not None:
            killed_by.append(tc.name)
            if killed_at is None:
                killed_at = site
    seconds = time.perf_counter() - t0
    timed_out = budget_seconds is not None and seconds > budget_seconds
    status = "killed" if killed_by else "survived"
    return MutantOutcome(spec, status, tuple(killed_by), timed_out, seconds, killed_at)


def _sample_specs(
    specs: Sequence[MutantSpec], max_mutants: Optional[int], seed: int
) -> List[MutantSpec]:
    """Deterministic (seeded) sample, preserving enumeration order."""
    if max_mutants is None or len(specs) <= max_mutants:
        return list(specs)
    if max_mutants < 0:
        raise ValueError(f"max_mutants must be >= 0, got {max_mutants}")
    picked = sorted(random.Random(seed).sample(range(len(specs)), max_mutants))
    return [specs[i] for i in picked]


# -- the "mutants" shard task ----------------------------------------------------


def run_mutants_task(
    task: Dict[str, Any],
    factory: Callable[[], Cluster],
    testcases: Sequence[TestCase],
    engine: str,
) -> List[list]:
    """The ``"mutants"`` branch of :func:`repro.exec.task.run_task`.

    Regenerates the identical sampled spec list from ``(factory,
    operators, seed, max_mutants)`` — a task ships mutant indices, not
    specs, so a parent/worker enumeration mismatch fails loudly (index
    error) instead of silently running a different mutant — recomputes
    the baselines, and returns ``[index, outcome.to_dict()]`` rows.
    """
    specs = _sample_specs(
        generate_mutants(factory(), task["operators"]),
        task["max_mutants"],
        task["seed"],
    )
    oracle = task["oracle"]
    baselines = compute_baselines(factory, testcases, oracle, engine)
    return [
        [
            index,
            run_mutant(
                specs[index], factory, testcases, baselines, oracle, engine,
                task["tolerance"], task["budget_seconds"],
            ).to_dict(),
        ]
        for index in task["indices"]
    ]


# -- entry point ---------------------------------------------------------------


def run_mutation(
    factory_ref: str,
    suite_ref: str,
    config: Optional["DftConfig"] = None,
    *,
    factory_args: Sequence = (),
    suite_args: Sequence = (),
    operators: Optional[Sequence[str]] = None,
    max_mutants: Optional[int] = None,
    oracle_signals: Optional[Sequence[str]] = None,
) -> MutationRun:
    """Run a full mutation analysis and return the kill matrix.

    ``factory_ref`` / ``suite_ref`` are importable ``"module:attr"``
    references (see :mod:`repro.exec.refs`); ``factory_args`` /
    ``suite_args``, when non-empty, are applied to the resolved object
    to obtain the actual factory/suite (the seeded random cluster uses
    this).  Both the in-process path and the shard tasks build
    everything from the references, so the kill matrix cannot depend on
    the backend.  :meth:`DftConfig.make_executor
    <repro.core.DftConfig.make_executor>` picks the backend for the
    pending mutants, with the same auto ``workers`` rule as the
    pipeline and generation: a task-running backend (a process pool or
    a remote fleet) receives them as ``"mutants"`` tasks, and anything
    else, or a single pending mutant, runs in-process.

    ``config`` carries seed / tolerance / workers / engine /
    budget_seconds / telemetry (see :class:`repro.core.DftConfig`); a
    ``budget_seconds`` of ``None`` (the config default) means the
    standard :data:`DEFAULT_BUDGET_SECONDS` per-mutant budget — pass
    ``float("inf")`` for an unbounded run.  The config is the only
    configuration path (API v1): the removed per-call keyword
    arguments now raise ``TypeError``.
    """
    from ..analysis.cache import fingerprint_cluster
    from ..core.config import DftConfig

    cfg = config if config is not None else DftConfig()
    seed = cfg.seed
    tolerance = cfg.tolerance
    engine = cfg.engine
    budget_seconds = (
        cfg.budget_seconds
        if cfg.budget_seconds is not None
        else DEFAULT_BUDGET_SECONDS
    )
    tel = cfg.telemetry if cfg.telemetry is not None else get_telemetry()
    factory = resolve_factory(factory_ref, factory_args)
    testcases = list(resolve_ref(suite_ref)(*suite_args))
    op_names = list(operators) if operators else None
    with tel.span(
        "mutation", factory=factory_ref, testcases=len(testcases)
    ) as span:
        all_specs = generate_mutants(factory(), op_names)
        specs = _sample_specs(all_specs, max_mutants, seed)
        cluster = factory()
        oracle = _oracle_names(cluster, oracle_signals)
        fingerprint = fingerprint_cluster(cluster)
        if tel.enabled:
            tel.metrics.counter("mutation.generated").inc(len(all_specs))
            tel.metrics.counter("mutation.sampled").inc(len(specs))

        suite_names = [tc.name for tc in testcases]
        history = cfg.run_history()
        # Warm start: verdicts are pure functions of (cluster, suite,
        # spec, engine, tolerance), so outcomes recorded by an earlier
        # run with the same fingerprint / config hash / suite can be
        # replayed from the history kill matrix instead of re-executed
        # (a replayed outcome took no time and cannot have timed out).
        reused: Dict[int, MutantOutcome] = {}
        if cfg.warm_start and history is not None:
            from ..obs.store import suite_sha as _suite_sha

            prior = history.latest(
                kind="mutation",
                fingerprint=fingerprint,
                config_hash=cfg.config_hash(),
                suite=_suite_sha(suite_names),
            )
            payload = (prior or {}).get("mutation") or {}
            if payload.get("oracle") == list(oracle):
                matrix = payload.get("kill_matrix") or {}
                for index, spec in enumerate(specs):
                    entry = matrix.get(spec.mutant_id)
                    if entry and entry.get("status"):
                        reused[index] = dataclasses.replace(
                            MutantOutcome.from_dict(spec, entry),
                            timed_out=False,
                            seconds=0.0,
                        )
            if tel.enabled and reused:
                tel.metrics.counter("mutation.warm_reused").inc(len(reused))
        pending = [i for i in range(len(specs)) if i not in reused]
        by_index: Dict[int, MutantOutcome] = dict(reused)
        backend = cfg.make_executor(
            factory_ref, suite_ref, len(pending),
            suite_args=suite_args, factory_args=factory_args,
        )
        fan_out = isinstance(backend, TaskExecutor)
        workers = backend.workers if fan_out else 1
        span.set_attribute("workers", workers)
        if fan_out:
            tasks = [
                {
                    "kind": "mutants",
                    "factory_ref": factory_ref,
                    "factory_args": list(factory_args),
                    "suite_ref": suite_ref,
                    "suite_args": list(suite_args),
                    "engine": engine,
                    "record_telemetry": tel.enabled,
                    "indices": list(shard),
                    "operators": op_names,
                    "seed": seed,
                    "max_mutants": max_mutants,
                    "oracle": list(oracle),
                    "tolerance": tolerance,
                    "budget_seconds": budget_seconds,
                }
                for shard in round_robin_shards(pending, workers)
            ]
            with tel.span("mutation.parallel", workers=len(tasks), mutants=len(pending)):
                replies = backend.map_tasks(tasks, tel)
                fold_replies(tel, replies, "mutation", "mutants")
            for reply in replies:
                for index, entry in reply["results"]:
                    by_index[index] = MutantOutcome.from_dict(specs[index], entry)
        elif pending:
            with tel.span("mutation.baseline", testcases=len(testcases)):
                baselines = compute_baselines(factory, testcases, oracle, engine)
            for index in pending:
                spec = specs[index]
                with tel.span("mutation.mutant", mutant=spec.mutant_id):
                    by_index[index] = run_mutant(
                        spec, factory, testcases, baselines, oracle,
                        engine, tolerance, budget_seconds,
                    )
        outcomes = [by_index[i] for i in range(len(specs))]

        if tel.enabled:
            tel.metrics.counter("mutation.viable").inc(
                sum(1 for o in outcomes if o.status != "nonviable")
            )
            tel.metrics.counter("mutation.killed").inc(
                sum(1 for o in outcomes if o.status == "killed")
            )
            tel.metrics.counter("mutation.timeout").inc(
                sum(1 for o in outcomes if o.timed_out)
            )

    run = MutationRun(
        factory_ref=factory_ref,
        suite_ref=suite_ref,
        operators=op_names if op_names else list(ALL_OPERATORS),
        seed=seed,
        engine=engine,
        workers=workers,
        tolerance=tolerance,
        generated=len(all_specs),
        specs=specs,
        outcomes=outcomes,
        testcase_names=[tc.name for tc in testcases],
        oracle_signals=list(oracle),
        fingerprint=fingerprint,
    )
    if history is not None:
        from ..obs.store import build_record

        record = build_record(
            "mutation",
            system=factory_ref,
            fingerprint=fingerprint,
            config_hash=cfg.config_hash(),
            suite_names=suite_names,
            telemetry=tel if tel.enabled else None,
            extra={
                "mutation": {
                    "score": round(run.mutation_score, 4),
                    "generated": run.generated,
                    "sampled": len(specs),
                    "killed": run.killed,
                    "survived": run.survived,
                    "nonviable": run.nonviable,
                    "total": run.viable,
                    "reused": len(reused),
                    "oracle": list(oracle),
                    "kill_matrix": {
                        outcome.spec.mutant_id: outcome.to_dict()
                        for outcome in outcomes
                    },
                }
            },
        )
        history.append(record)
    return run
