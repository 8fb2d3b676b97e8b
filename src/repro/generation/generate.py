"""Coverage-guided testcase generation (the paper's §VI loop, automated).

The paper refines testsuites by hand: run the pipeline, read the ranked
missed-association report, craft a stimulus that drives the missing
def into the missing use, repeat.  :func:`generate_suite` automates
that loop:

1. run the baseline pipeline on the given suite and collect the missed
   associations, strongest class first (the paper's triage order);
2. for each open target, search the system's stimulus parameter space
   (:mod:`repro.generation.space`) with a pluggable strategy
   (:mod:`repro.generation.search`), scoring candidates with the
   probe-event fitness (:mod:`repro.generation.fitness`);
3. accept every candidate that closes at least one *open* target
   (opportunistic closure: a candidate searched for one association
   frequently closes several), append it to the suite, and move on;
4. stop on full target coverage, the simulation/wall-clock budget, or
   per-target stagnation; finish with a fully memoized verification
   run of the base + generated suite.

Determinism: every random decision flows from ``config.seed`` through
per-target :class:`random.Random` streams, and candidate fitness is a
pure function of the exercised-pair set — identical across execution
backends, engines and worker counts.  ``generate_suite(seed=N)`` with
``workers=1`` and ``workers=4`` synthesizes byte-identical suites.

Fan-out: the baseline and every batch of cache misses (memoized by
``DynamicResultCache.resolve``, as in the pipeline) take their backend
from ``DftConfig.make_executor``; a one-candidate batch runs in-process.

Budgets: ``config.budget_simulations`` counts *executed* candidate
simulations (memo hits are free; the baseline run is not counted).
``config.budget_seconds`` is a wall-clock lid checked between rounds —
useful operationally, but the only budget that can make two otherwise
identical runs diverge, so the CLI default budget is simulation-count
based.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..core.associations import AssocClass
from ..core.config import DftConfig
from ..core.pipeline import PipelineResult, run_dft
from ..exec import SerialExecutor
from ..exec.cache import DynamicResultCache
from ..obs import Telemetry, get_telemetry
from ..testing.testcase import TestSuite
from .fitness import Fitness, PairKey, build_guides, graded_fitness
from .search import SearchStrategy, make_strategy
from .space import EncodedParams, ParameterSpace, space_for

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid cycles
    from ..core.coverage import CoverageResult
    from ..instrument.matching import MatchResult
    from ..instrument.runner import ClusterFactory

#: The worker-side suite reference candidate batches are rebuilt through.
DECODE_REF = "repro.generation.space:decode_candidates"

#: Classes searched by default: Strong/Firm/PFirm contain at least one
#: du-path, so an input signal is expected to be able to cover them;
#: PWeak associations are the most likely to be infeasible (paper §VI).
DEFAULT_TARGET_CLASSES: Tuple[AssocClass, ...] = (
    AssocClass.STRONG,
    AssocClass.FIRM,
    AssocClass.PFIRM,
)


@dataclass(frozen=True)
class GeneratedTest:
    """One accepted synthesized testcase."""

    name: str
    system: str
    params: EncodedParams
    #: Open targets this candidate closed at acceptance time.
    closed: Tuple[PairKey, ...]
    #: The target the search was working on when this candidate arose.
    sought: PairKey


@dataclass(frozen=True)
class TargetOutcome:
    """How the search ended for one missed association."""

    key: PairKey
    klass: str
    #: ``closed`` / ``pre_closed`` (closed while searching an earlier
    #: target) / ``stagnated`` / ``rounds`` / ``budget`` / ``skipped``
    #: (budget exhausted before the search reached it).
    status: str
    rounds: int
    best_score: float
    #: Name of the testcase that closed it, when ``closed``/``pre_closed``.
    closed_by: Optional[str] = None
    #: Candidate simulations actually executed for this target (memo
    #: hits are free and excluded; 0 for pre_closed/skipped targets).
    simulations: int = 0
    #: Best fitness score after each search round, in round order.
    trajectory: Tuple[float, ...] = ()


@dataclass
class GenerationResult:
    """Outcome of one coverage-guided generation run."""

    system: str
    seed: int
    strategy: str
    #: Base + accepted synthesized testcases, in acceptance order.
    suite: TestSuite
    generated: Tuple[GeneratedTest, ...]
    targets: Tuple[TargetOutcome, ...]
    coverage_before: "CoverageResult"
    coverage_after: "CoverageResult"
    #: Full pipeline result of the final (memoized) verification run.
    pipeline: PipelineResult
    #: Executed candidate simulations (memo hits and baseline excluded).
    simulations: int
    #: Candidate proposals served from the result cache.
    memo_hits: int
    #: Total candidate proposals (simulations + memo_hits).
    candidates: int
    #: ``coverage`` / ``budget_simulations`` / ``budget_seconds`` /
    #: ``exhausted`` (every target searched, some remain open).
    stop_reason: str
    wall_seconds: float = 0.0
    #: ``all`` (every missed association searched) or ``frontier``
    #: (only non-subsumed associations searched).
    target_mode: str = "all"
    #: Missed associations excluded from the search because a frontier
    #: element subsumes them (0 in ``all`` mode).
    subsumed_targets: int = 0
    #: How many of those the final suite covers anyway (closed
    #: opportunistically when their subsumer closed).
    subsumed_closed: int = 0

    @property
    def closed(self) -> Tuple[PairKey, ...]:
        """Every target the run closed, in outcome order."""
        return tuple(
            t.key for t in self.targets if t.status in ("closed", "pre_closed")
        )


class _Budget:
    """Tracks the simulation / wall-clock lids across the whole run."""

    def __init__(self, cfg: DftConfig) -> None:
        self.max_simulations = cfg.budget_simulations
        self.max_seconds = cfg.budget_seconds
        self.simulations = 0
        self.t0 = time.perf_counter()
        self.exhausted_by: Optional[str] = None

    def remaining_simulations(self) -> Optional[int]:
        if self.max_simulations is None:
            return None
        return max(0, self.max_simulations - self.simulations)

    def check(self) -> bool:
        """Whether the run may continue (records the stop reason if not)."""
        if self.exhausted_by is not None:
            return False
        if self.max_simulations is not None and self.simulations >= self.max_simulations:
            self.exhausted_by = "budget_simulations"
            return False
        if (
            self.max_seconds is not None
            and time.perf_counter() - self.t0 >= self.max_seconds
        ):
            self.exhausted_by = "budget_seconds"
            return False
        return True


class _Evaluator:
    """Runs candidate batches through the cache and the executor fan-out."""

    def __init__(
        self,
        cluster_factory: "ClusterFactory",
        static,
        space: ParameterSpace,
        cfg: DftConfig,
        cache: DynamicResultCache,
        tel: Telemetry,
        factory_ref: Optional[str],
    ) -> None:
        self.cluster_factory = cluster_factory
        self.static = static
        self.space = space
        self.cfg = cfg
        self.cache = cache
        self.tel = tel
        self.factory_ref = factory_ref
        self.memo_hits = 0
        self.candidates = 0

    def run(
        self, batch: Sequence[Dict[str, float]], budget: _Budget
    ) -> List[Tuple[str, EncodedParams, "MatchResult"]]:
        """Evaluate a proposal batch (cache first, simulate the rest).

        Returns ``(name, encoding, match)`` in proposal order; trims the
        batch when fewer simulations than cache misses remain in the
        budget.  Duplicate proposals within one batch collapse onto a
        single simulation.
        """
        ordered = [
            (self.space.candidate_name(params), self.space.encode(params))
            for params in batch
        ]
        encodings = dict(ordered)

        def simulate(missing: List[str]) -> Dict[str, "MatchResult"]:
            remaining = budget.remaining_simulations()
            if remaining is not None:
                missing = missing[:remaining]
            if not missing:
                return {}
            # Synthesized testcases close over their parameters: a
            # fan-out ships encodings the workers decode via DECODE_REF.
            suite_args = (self.space.system, tuple(encodings[n] for n in missing))
            executor = self.cfg.make_executor(
                self.factory_ref, DECODE_REF, len(missing), suite_args=suite_args
            ) or SerialExecutor()
            suite = TestSuite(
                f"gen_{self.space.system}_batch",
                [self.space.build(dict(encodings[n])) for n in missing],
            )
            dynamic = executor.run_suite(
                self.cluster_factory, self.static, suite,
                warn=self.cfg.warn, telemetry=self.tel, engine=self.cfg.engine,
            )
            budget.simulations += len(missing)
            if self.tel.enabled:
                self.tel.metrics.counter("generation.simulations").inc(len(missing))
            return dynamic.per_testcase

        results, hits = self.cache.resolve(
            self.static.fingerprint, [name for name, _ in ordered], simulate
        )
        self.memo_hits += hits
        ordered = [item for item in ordered if item[0] in results]
        self.candidates += len(ordered)
        if self.tel.enabled:
            self.tel.metrics.counter("generation.candidates").inc(len(ordered))
        return [(name, enc, results[name]) for name, enc in ordered]


def generate_suite(
    cluster_factory: "ClusterFactory",
    base_suite: TestSuite,
    system: str,
    config: Optional[DftConfig] = None,
    *,
    factory_ref: Optional[str] = None,
    suite_ref: Optional[str] = None,
    space: Optional[ParameterSpace] = None,
    strategy: "str | SearchStrategy | None" = None,
    target_classes: Sequence[AssocClass] = DEFAULT_TARGET_CLASSES,
    target_mode: str = "all",
    candidates_per_round: int = 6,
    stagnation_rounds: int = 4,
    max_rounds_per_target: int = 12,
) -> GenerationResult:
    """Synthesize testcases that close ``base_suite``'s missed associations.

    ``system`` selects the bundled stimulus space (or pass ``space``);
    ``factory_ref``/``suite_ref`` are the importable references worker
    processes rebuild the cluster and base suite from — without them
    ``config.workers`` cannot fan out and the run is serial.  ``config``
    carries the seed, budgets, engine and fan-out (see
    :class:`repro.core.DftConfig`).

    The returned :class:`GenerationResult` holds the grown suite, the
    per-target outcomes, and the before/after coverage from a final
    verification pipeline run (fully memoized — it re-executes nothing).

    ``target_mode="frontier"`` runs the subsumption pass
    (:mod:`repro.analysis.subsume`) and searches only the non-subsumed
    missed associations; subsumed ones close opportunistically when
    their subsumer does and are accounted separately
    (``subsumed_targets`` / ``subsumed_closed``).
    """
    if target_mode not in ("all", "frontier"):
        raise ValueError(f"target_mode must be 'all' or 'frontier', got {target_mode!r}")
    cfg = config if config is not None else DftConfig()
    tel = cfg.telemetry if cfg.telemetry is not None else get_telemetry()
    space = space if space is not None else space_for(system)
    strat = make_strategy(strategy)
    cache = cfg.result_cache if cfg.result_cache is not None else DynamicResultCache()
    # Inner pipeline runs must not add history entries of their own —
    # the whole generation run appends exactly one record at the end.
    run_cfg = cfg.replace(result_cache=cache, telemetry=tel, history_dir=None)
    history = cfg.run_history()
    t0 = time.perf_counter()

    with tel.span(
        "generation", system=system, seed=cfg.seed, strategy=strat.name
    ):
        # -- baseline -----------------------------------------------------
        base_executor = cfg.make_executor(factory_ref, suite_ref, len(base_suite))
        baseline = run_dft(
            cluster_factory, base_suite,
            run_cfg.replace(executor=base_executor),
        )
        wanted = set(target_classes)
        missed = [
            a for a in baseline.coverage.missed() if a.klass in wanted
        ]
        subsumed_missed: List = []
        if target_mode == "frontier":
            from ..analysis.subsume import analyze_subsumption, frontier_reduced

            subsumption = analyze_subsumption(baseline.static)
            targets, subsumed_missed = frontier_reduced(missed, subsumption)
        else:
            targets = missed
        # Static du-path guides refine the binary fitness levels into a
        # graded approach/kill distance (pure pair-set lookups, so the
        # search stays deterministic across backends and workers).
        guides = build_guides(baseline.static, targets)

        evaluator = _Evaluator(
            cluster_factory, baseline.static, space, cfg, cache, tel, factory_ref
        )
        budget = _Budget(cfg)
        open_keys: Set[PairKey] = {a.key for a in targets}
        closed_by: Dict[PairKey, str] = {}
        generated: List[GeneratedTest] = []
        outcomes: List[TargetOutcome] = []
        accepted_names: Set[str] = set()

        # -- warm start from the history ledger ----------------------------
        # Candidates accepted by the most recent matching run (same base
        # suite, fingerprint and config hash) are re-evaluated first —
        # usually straight from the result cache — so the search only
        # works on targets the previous run did not already close.
        if cfg.warm_start and history is not None and targets:
            from ..obs.store import suite_sha as _suite_sha

            prior = history.latest(
                kind="generation",
                system=system,
                fingerprint=baseline.static.fingerprint,
                config_hash=cfg.config_hash(),
                suite=_suite_sha([tc.name for tc in base_suite]),
            )
            payload = (prior or {}).get("generation") or {}
            seeds: List[Dict[str, float]] = []
            if payload.get("space_version") == space.version:
                for entry in payload.get("accepted") or []:
                    params = entry.get("params") or []
                    try:
                        seeds.append({str(k): float(v) for k, v in params})
                    except (TypeError, ValueError):
                        continue
            if seeds:
                reused = 0
                for name, encoded, match in evaluator.run(seeds, budget):
                    newly = tuple(
                        sorted(k for k in open_keys if k in match.pairs)
                    )
                    if newly and name not in accepted_names:
                        accepted_names.add(name)
                        generated.append(GeneratedTest(
                            name=name, system=system, params=encoded,
                            closed=newly, sought=newly[0],
                        ))
                        reused += 1
                        for k in newly:
                            open_keys.discard(k)
                            closed_by[k] = name
                if tel.enabled and reused:
                    tel.metrics.counter("generation.warm_reused").inc(reused)

        # -- search, strongest class first --------------------------------
        for assoc in targets:
            key = assoc.key
            if key not in open_keys:
                outcomes.append(TargetOutcome(
                    key, assoc.klass.value, "pre_closed", 0, 1.0,
                    closed_by=closed_by.get(key),
                ))
                continue
            if not budget.check():
                outcomes.append(TargetOutcome(
                    key, assoc.klass.value, "skipped", 0, 0.0
                ))
                continue
            # A private deterministic stream per target: independent of
            # how many candidates earlier targets consumed, so closing
            # one association never perturbs the search for the next.
            rng = random.Random(
                f"{cfg.seed}|{system}|{space.version}|{strat.name}|{key}"
            )
            strat.reset(space, rng)
            guide = guides.get(key)
            best = Fitness(-1.0, False, False, False, False)
            stale = 0
            rounds = 0
            status = "rounds"
            sims_before = budget.simulations
            trajectory: List[float] = []
            with tel.span("generation.target", target=str(key)):
                while rounds < max_rounds_per_target:
                    if not budget.check():
                        status = "budget"
                        break
                    batch = strat.ask(candidates_per_round)
                    if not batch:
                        status = "stagnated"
                        break
                    evaluated = evaluator.run(batch, budget)
                    if not evaluated:
                        status = "budget"
                        break
                    rounds += 1
                    feedback: List[Tuple[Dict[str, float], float]] = []
                    improved = False
                    for name, encoded, match in evaluated:
                        fit = graded_fitness(key, match.pairs, guide)
                        feedback.append((dict(encoded), fit.score))
                        if fit.score > best.score:
                            best = fit
                            improved = True
                        newly_closed = tuple(
                            sorted(k for k in open_keys if k in match.pairs)
                        )
                        if newly_closed and name not in accepted_names:
                            accepted_names.add(name)
                            generated.append(GeneratedTest(
                                name=name, system=system, params=encoded,
                                closed=newly_closed, sought=key,
                            ))
                            for k in newly_closed:
                                open_keys.discard(k)
                                closed_by[k] = name
                            if tel.enabled:
                                tel.metrics.counter("generation.closed").inc(
                                    len(newly_closed)
                                )
                    strat.tell(feedback)
                    trajectory.append(best.score)
                    if key not in open_keys:
                        status = "closed"
                        break
                    if improved:
                        stale = 0
                    else:
                        stale += 1
                        if stale >= stagnation_rounds:
                            status = "stagnated"
                            break
            if key not in open_keys and status != "closed":
                status = "closed"
            if tel.enabled:
                tel.metrics.counter("generation.rounds").inc(rounds)
            outcomes.append(TargetOutcome(
                key, assoc.klass.value, status, rounds,
                1.0 if status == "closed" else best.score,
                closed_by=closed_by.get(key),
                simulations=budget.simulations - sims_before,
                trajectory=tuple(trajectory),
            ))

        # -- verification (fully memoized) --------------------------------
        final_suite = TestSuite(base_suite.name, base_suite.testcases)
        final_suite.extend([space.build(dict(g.params)) for g in generated])
        final = run_dft(cluster_factory, final_suite, run_cfg)
        subsumed_closed = sum(
            1 for a in subsumed_missed if final.coverage.is_covered(a)
        )

        if not open_keys:
            stop_reason = "coverage"
        elif budget.exhausted_by is not None:
            stop_reason = budget.exhausted_by
        else:
            stop_reason = "exhausted"

    if history is not None:
        from ..obs.store import build_record

        record = build_record(
            "generation",
            system=system,
            # Keyed by the *input* suite, so a later warm start with the
            # same base suite finds this record; the grown suite lives
            # in the generation payload.
            fingerprint=baseline.static.fingerprint,
            config_hash=cfg.config_hash(),
            suite_names=[tc.name for tc in base_suite],
            coverage=final.coverage,
            telemetry=final.telemetry,
            extra={
                "generation": {
                    "space_version": space.version,
                    "strategy": strat.name,
                    "accepted": [
                        {"name": g.name, "params": [[k, v] for k, v in g.params]}
                        for g in generated
                    ],
                    "closed": sum(
                        1 for t in outcomes if t.status in ("closed", "pre_closed")
                    ),
                    "targets": len(targets),
                    "targets_mode": target_mode,
                    "subsumed_targets": len(subsumed_missed),
                    "subsumed_closed": subsumed_closed,
                    "simulations": budget.simulations,
                    "stop_reason": stop_reason,
                    "final_tests": len(final_suite),
                }
            },
        )
        history.append(record)

    return GenerationResult(
        system=system,
        seed=cfg.seed,
        strategy=strat.name,
        suite=final_suite,
        generated=tuple(generated),
        targets=tuple(outcomes),
        coverage_before=baseline.coverage,
        coverage_after=final.coverage,
        pipeline=final,
        simulations=budget.simulations,
        memo_hits=evaluator.memo_hits,
        candidates=evaluator.candidates,
        stop_reason=stop_reason,
        wall_seconds=time.perf_counter() - t0,
        target_mode=target_mode,
        subsumed_targets=len(subsumed_missed),
        subsumed_closed=subsumed_closed,
    )
