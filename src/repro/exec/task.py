"""The shard task: the one unit of work every fan-out ships.

Coverage runs and mutation kill matrices are pure functions of
``(factory, suite, engine)``, so every parallel backend splits them the
same way: stripe the work (:func:`~repro.exec.base.round_robin_shards`)
into one **task** per worker — a JSON-ready dict naming the factory and
the suite by importable reference (:mod:`repro.exec.refs`) — and run it
with :func:`run_task`, in a pool process or on a remote worker alike.

Every task carries ``kind``, ``factory_ref``/``factory_args`` (non-empty
args are applied to the resolved object to get the factory),
``suite_ref``/``suite_args``, ``engine`` and ``record_telemetry``.  A
``"suite"`` task adds the testcase ``names``, ``model_start_lines``,
``fingerprint`` and ``warn``; a ``"mutants"`` task adds the mutant
``indices``, ``operators``, ``seed``, ``max_mutants``, ``oracle``,
``tolerance`` and ``budget_seconds``.

The reply is ``{"results", "telemetry", "cache_hits"}``, with
``results`` pairing each testcase name (mutant index) with its
canonical encoding — :func:`encode_match`
(:meth:`~repro.mutation.MutantOutcome.to_dict`) — so two workers that
computed the same result reply with the same bytes.
"""

from __future__ import annotations

import abc
import copy
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..obs import Telemetry, get_telemetry, telemetry_session
from .base import DynamicExecutor, round_robin_shards
from .refs import resolve_ref

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid cycles
    from ..analysis.cluster_analysis import StaticAnalysisResult
    from ..instrument.matching import MatchResult
    from ..instrument.runner import ClusterFactory, DynamicResult
    from ..testing.testcase import TestSuite
    from .cache import DynamicResultCache


# -- match-result codec ------------------------------------------------------


def encode_match(match: "MatchResult") -> Dict[str, Any]:
    """The JSON-native form of one testcase's match result.

    Pairs are sorted so the encoding is canonical: two workers that
    computed the same result produce the same bytes.
    """
    return {
        "testcase": match.testcase,
        "pairs": [list(pair) for pair in sorted(match.pairs)],
        "use_without_def": list(match.use_without_def),
    }


def decode_match(data: Dict[str, Any]) -> "MatchResult":
    """Rebuild a :class:`MatchResult` from :func:`encode_match` output."""
    from ..instrument.matching import MatchResult

    return MatchResult(
        testcase=data["testcase"],
        pairs={tuple(pair) for pair in data["pairs"]},
        use_without_def=list(data["use_without_def"]),
    )


# -- the runner --------------------------------------------------------------


def resolve_factory(ref: str, args: Sequence = ()) -> "ClusterFactory":
    """Resolve a cluster factory; non-empty ``args`` select a
    parameterized factory-of-factories (e.g. the seeded random cluster)."""
    obj = resolve_ref(ref)
    return obj(*args) if args else obj


def run_task(
    task: Dict[str, Any], cache: Optional["DynamicResultCache"] = None
) -> Dict[str, Any]:
    """Run one task and return its JSON-ready reply.

    ``cache`` memoizes suite-task results under (``fingerprint``,
    testcase name); a remote worker passes its process-wide memo so a
    repeated or re-dispatched task answers without simulating.
    """
    factory = resolve_factory(task["factory_ref"], task.get("factory_args") or ())
    testcases = list(resolve_ref(task["suite_ref"])(*(task.get("suite_args") or ())))
    record = bool(task.get("record_telemetry"))
    engine = task.get("engine") or "auto"
    kind = task.get("kind")
    # A private session per task: kernel hooks key off the globally
    # active telemetry, so activating one here captures tdf.* metrics
    # too.  A forked pool process may have inherited the parent's
    # session object; telemetry_session replaces (and later restores) it.
    with telemetry_session(Telemetry() if record else None) as tel:
        if kind == "suite":
            results, hits = _run_suite_task(
                task, factory, testcases, engine, tel if record else None, cache
            )
        elif kind == "mutants":
            from ..mutation.executor import run_mutants_task

            results, hits = run_mutants_task(task, factory, testcases, engine), 0
        else:
            raise ValueError(f"unknown task kind {kind!r}")
        payload = tel.metrics.records() if record else []
    return {
        "results": results,
        "telemetry": payload,
        "cache_hits": hits,
    }


def _run_suite_task(
    task: Dict[str, Any],
    factory: "ClusterFactory",
    testcases: List[Any],
    engine: str,
    tel: Optional[Telemetry],
    cache: Optional["DynamicResultCache"],
) -> Tuple[List[list], int]:
    from ..instrument.runner import DynamicAnalyzer
    from .cache import DynamicResultCache

    by_name = {tc.name: tc for tc in testcases}
    names: List[str] = list(task["names"])
    missing = [name for name in names if name not in by_name]
    if missing:
        raise LookupError(
            f"suite reference {task['suite_ref']!r} does not provide "
            f"testcase(s) {missing}"
        )
    # The matcher reads only ``model_start_lines`` of the static result.
    static = SimpleNamespace(model_start_lines=dict(task["model_start_lines"]))
    analyzer = DynamicAnalyzer(
        factory, static, warn=bool(task.get("warn")), telemetry=tel, engine=engine,
    )
    memo = cache if cache is not None else DynamicResultCache()
    results, hits = memo.resolve(
        task.get("fingerprint"), names,
        lambda pending: {name: analyzer.run_testcase(by_name[name]) for name in pending},
    )
    return [[name, encode_match(results[name])] for name in names], hits


def fold_replies(
    tel: Telemetry, replies: Sequence[Dict[str, Any]], prefix: str, unit: str
) -> None:
    """Merge each reply's counters into ``tel``, plus one
    ``{prefix}.worker_{unit}`` per task."""
    if not tel.enabled:
        return
    for index, reply in enumerate(replies):
        tel.metrics.merge_raw(reply["telemetry"])
        tel.metrics.counter(f"{prefix}.worker_{unit}", worker=index).inc(
            len(reply["results"])
        )


# -- the backends' shared suite fan-out -----------------------------------------


class TaskExecutor(DynamicExecutor):
    """A backend that runs tasks; subclasses supply :meth:`map_tasks`.

    :meth:`run_suite` is shared: validate the names against the suite
    reference, stripe them into ``"suite"`` tasks, map, decode, and
    merge in suite order.
    """

    #: The telemetry span around one suite fan-out.
    span = "dynamic.parallel"

    def __init__(
        self,
        factory_ref: str,
        suite_ref: str,
        suite_args: Sequence = (),
        factory_args: Sequence = (),
    ) -> None:
        # Fail fast, in the parent, on unresolvable references.
        resolve_ref(factory_ref)
        resolve_ref(suite_ref)
        self.factory_ref = factory_ref
        self.suite_ref = suite_ref
        #: How synthesized suites reach the workers as plain parameter
        #: encodings (see :func:`repro.generation.space.decode_candidates`).
        self.suite_args = tuple(suite_args)
        self.factory_args = tuple(factory_args)

    @abc.abstractmethod
    def map_tasks(
        self, tasks: Sequence[Dict[str, Any]], tel: Telemetry
    ) -> List[Dict[str, Any]]:
        """Run every task through :func:`run_task`; replies in task order."""

    def for_suite(self, suite_ref: str, suite_args: Sequence = ()) -> "TaskExecutor":
        """This backend, building its suite tasks from ``suite_ref``
        (itself when that is already its suite)."""
        if (suite_ref, tuple(suite_args)) == (self.suite_ref, self.suite_args):
            return self
        rebound = copy.copy(self)
        rebound.suite_ref = suite_ref
        rebound.suite_args = tuple(suite_args)
        return rebound

    def _shards(self, names: Sequence[str]) -> List[Tuple[str, ...]]:
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
        provided = {tc.name for tc in resolve_ref(self.suite_ref)(*self.suite_args)}
        unknown = [name for name in names if name not in provided]
        if unknown:
            raise LookupError(
                f"suite reference {self.suite_ref!r} does not provide "
                f"testcase(s) {unknown}; fanned-out execution needs every "
                f"testcase to be rebuildable by name in the workers"
            )
        tasks = [
            {
                "kind": "suite",
                "factory_ref": self.factory_ref,
                "factory_args": list(self.factory_args),
                "suite_ref": self.suite_ref,
                "suite_args": list(self.suite_args),
                "engine": engine or "auto",
                "record_telemetry": tel.enabled,
                "names": list(shard),
                "model_start_lines": dict(static.model_start_lines),
                "fingerprint": getattr(static, "fingerprint", None),
                "warn": warn,
            }
            for shard in self._shards(names)
        ]
        with tel.span(self.span, workers=len(tasks), testcases=len(names)):
            replies = self.map_tasks(tasks, tel)
            fold_replies(tel, replies, "exec", "testcases")
        per_name = {
            name: decode_match(encoded)
            for reply in replies
            for name, encoded in reply["results"]
        }
        for name in names:
            result.per_testcase[name] = per_name[name]
        return result
