"""Unified run configuration for the DFT pipeline (:class:`DftConfig`).

Every run-configuration knob lives in one frozen dataclass:

* one object carries the execution engine, the worker fan-out, the
  cache switches, telemetry, warning behaviour, the oracle tolerance
  and the search/execution budgets;
* :meth:`DftConfig.make_executor` alone turns ``executor``/``workers``
  into the backend of every fan-out (runs, campaigns, generation,
  mutation), so ``workers=None`` means one auto rule everywhere;
* :meth:`DftConfig.from_args` derives it from an ``argparse`` namespace
  in a single place — every CLI subcommand shares the same flag
  plumbing;
* :meth:`DftConfig.to_json` / :meth:`DftConfig.from_json` round-trip
  the primitive fields, so a CLI ``--config`` file and a job spec
  submitted to the service share one serialization.

The config is the *only* configuration path: ``run_dft``, campaigns,
mutation and generation take no per-call keyword knobs.

The dataclass is *frozen*: deriving a variant goes through
:meth:`DftConfig.replace`, so a config can be shared between a campaign
and its pipeline runs without aliasing surprises.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, TYPE_CHECKING

from ..tdf.engine.executor import ENGINES

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid cycles
    from ..exec.base import DynamicExecutor
    from ..exec.cache import DynamicResultCache
    from ..obs import Telemetry

#: Fields that hold live runtime objects (executors, caches, telemetry
#: sessions).  They never serialize: a config file or a job spec
#: crossing a process boundary carries only the primitive knobs.
RUNTIME_FIELDS = ("executor", "result_cache", "telemetry")


@dataclass(frozen=True)
class DftConfig:
    """Every knob of a DFT pipeline / campaign / mutation / generation run.

    Field groups:

    execution
        ``engine`` — TDF execution engine (``"auto"``/``"interp"``/
        ``"block"``; engines are bit-identical).  ``workers`` — fan-out
        of testcases, generation candidates and mutants (``None`` =
        automatic heuristic, ``1`` = serial).  ``executor`` — an
        explicit :class:`~repro.exec.DynamicExecutor` instance; when
        set it wins over ``workers`` (see :meth:`make_executor`).
    caches
        ``result_cache`` — an explicit per-testcase
        :class:`~repro.exec.DynamicResultCache` for ``run_dft`` (a
        campaign makes its own when unset, so iterations reuse
        per-testcase results); ``static_cache`` / ``cache_dir`` —
        static-analysis memoization switches.
    observability
        ``telemetry`` — an explicit session overriding the globally
        active one; ``warn`` — surface use-without-def findings as
        Python warnings.
    tolerances / budgets
        ``tolerance`` — absolute trace-divergence tolerance for
        differential oracles (mutation, generation acceptance);
        ``budget_seconds`` — wall-clock budget (per mutant, or for a
        whole generation run); ``budget_simulations`` — simulation-count
        budget for coverage-guided generation.
    determinism
        ``seed`` — the master seed for every seeded decision
        (mutant sampling, stimulus search).
    history
        ``history_dir`` — when set, every run appends one record to the
        run-history ledger there; ``warm_start`` — let mutation and
        generation seed from the latest matching history record.
    """

    engine: str = "auto"
    workers: Optional[int] = 1
    executor: Optional["DynamicExecutor"] = None
    result_cache: Optional["DynamicResultCache"] = None
    static_cache: bool = True
    cache_dir: Optional[str] = None
    telemetry: Optional["Telemetry"] = None
    warn: bool = False
    tolerance: float = 1e-9
    budget_seconds: Optional[float] = None
    budget_simulations: Optional[int] = None
    seed: int = 0
    history_dir: Optional[str] = None
    warm_start: bool = False

    def __post_init__(self) -> None:
        """One-line :class:`ValueError` naming an ill-typed or
        out-of-range field (``--workers``, ``--config`` files and
        service submissions all land here)."""
        def is_int(v: Any) -> bool:
            return isinstance(v, int) and not isinstance(v, bool)

        def at_least(v: Any, low: float, kinds=(int, float)) -> bool:
            return isinstance(v, kinds) and not isinstance(v, bool) and v >= low

        for name, expected, ok in (
            ("engine", f"one of {', '.join(ENGINES)}", self.engine in ENGINES),
            ("workers", "None or an int >= 1",
             self.workers is None or at_least(self.workers, 1, int)),
            ("tolerance", "a number >= 0", at_least(self.tolerance, 0)),
            ("seed", "an int", is_int(self.seed)),
            ("budget_seconds", "None or a number >= 0",
             self.budget_seconds is None or at_least(self.budget_seconds, 0)),
            ("budget_simulations", "None or an int >= 0",
             self.budget_simulations is None
             or at_least(self.budget_simulations, 0, int)),
            ("static_cache", "a bool", isinstance(self.static_cache, bool)),
            ("warn", "a bool", isinstance(self.warn, bool)),
            ("warm_start", "a bool", isinstance(self.warm_start, bool)),
        ):
            if not ok:
                raise ValueError(
                    f"{name} must be {expected}, got {getattr(self, name)!r}"
                )

    # -- derivation -----------------------------------------------------------

    def replace(self, **changes: Any) -> "DftConfig":
        """A copy with ``changes`` applied (the frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_args(
        cls, args: Any, base: Optional["DftConfig"] = None, **overrides: Any
    ) -> "DftConfig":
        """Build a config from an ``argparse`` namespace.

        Reads every recognised attribute that is present on ``args``
        (subcommands expose different subsets; absent attributes keep
        the dataclass default), then applies ``overrides``.  This is the
        single place CLI flags map onto run configuration — adding a
        flag means adding one line here instead of one per subcommand.

        ``base`` layers the flags on top of an existing config instead
        of the dataclass defaults — how ``--config FILE`` composes with
        explicit flags (the CLI registers config-mapped flags with
        ``argparse.SUPPRESS`` defaults, so only flags the user actually
        passed appear on ``args`` and override the file).
        """
        field_map = {
            "engine": "engine",
            "workers": "workers",
            "seed": "seed",
            "tolerance": "tolerance",
            "budget_seconds": "budget_seconds",
            "budget_simulations": "budget_simulations",
            "cache_dir": "cache_dir",
            "warn": "warn",
            "warm_start": "warm_start",
        }
        values: dict = {}
        for attr, fld in field_map.items():
            if hasattr(args, attr):
                values[fld] = getattr(args, attr)
        if getattr(args, "no_static_cache", False):
            values["static_cache"] = False
        values.update(overrides)
        if base is not None:
            return base.replace(**values)
        return cls(**values)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The primitive fields as a JSON-ready dict.

        Runtime-object fields (:data:`RUNTIME_FIELDS`) are excluded —
        they cannot cross a file or a process boundary.  The output
        round-trips through :meth:`from_json`, which is the contract a
        CLI ``--config`` file and a service job spec both rely on.
        """
        out: Dict[str, Any] = {}
        for fld in dataclasses.fields(self):
            if fld.name in RUNTIME_FIELDS:
                continue
            out[fld.name] = getattr(self, fld.name)
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "DftConfig":
        """Rebuild a config from a :meth:`to_json` dict.

        Unknown keys and runtime-object keys raise :class:`ValueError`
        with a one-line message naming them — a typo in a config file
        must not silently run with defaults.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"config document must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)} - set(RUNTIME_FIELDS)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown config field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**dict(data))

    @classmethod
    def file_overrides(cls, path: str) -> Dict[str, Any]:
        """The validated field dict a ``--config`` file provides.

        ``*.toml`` parses as TOML, anything else as JSON.  Unlike
        :meth:`from_file`, this returns only the fields the file
        actually sets — the CLI layers them *between* per-subcommand
        defaults and explicit flags, so absent fields keep the
        subcommand's default rather than the dataclass's.  Parse and
        validation errors raise :class:`ValueError` with the path in a
        one-line message (the CLI turns that into a clean exit 1).
        """
        import json

        expanded = os.path.expanduser(path)
        try:
            if expanded.endswith(".toml"):
                import tomllib

                with open(expanded, "rb") as handle:
                    data = tomllib.load(handle)
            else:
                with open(expanded, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read config file {path!r}: {exc}") from None
        except Exception as exc:
            raise ValueError(f"cannot parse config file {path!r}: {exc}") from None
        try:
            cls.from_json(data)  # field-name and type validation
        except ValueError as exc:
            raise ValueError(f"config file {path!r}: {exc}") from None
        return dict(data)

    @classmethod
    def from_file(cls, path: str) -> "DftConfig":
        """Load a config from a TOML or JSON file (see
        :meth:`file_overrides`); absent fields keep dataclass defaults."""
        return cls.from_json(cls.file_overrides(path))

    # -- workers / executor resolution ---------------------------------------

    def resolved_workers(self, suite_len: int) -> int:
        """The effective worker count for a ``suite_len``-testcase run.

        An explicit ``workers`` value wins; ``None`` is *auto*: serial
        when the host has a single CPU (a process pool only adds
        pickling overhead) or the suite has fewer than two testcases,
        else one worker per CPU capped at the suite size.
        """
        if self.workers is not None:
            return self.workers
        cpus = os.cpu_count() or 1
        if cpus <= 1 or suite_len < 2:
            return 1
        return min(cpus, suite_len)

    def make_executor(
        self,
        factory_ref: Optional[str],
        suite_ref: Optional[str],
        items: int,
        suite_args: Sequence = (),
        factory_args: Sequence = (),
    ) -> Optional["DynamicExecutor"]:
        """The backend ``items`` testcases, candidates or mutants fan
        out on, or ``None`` to run them in-process.

        An explicit executor that runs no tasks is returned as given; a
        single item never fans out; an explicit
        :class:`~repro.exec.TaskExecutor` is rebound to the caller's
        suite.  Otherwise ``workers`` (through the auto rule) picks a
        :class:`~repro.exec.ProcessExecutor`, or ``None`` when it
        resolves to 1 or a reference is missing.
        """
        from ..exec import ProcessExecutor, TaskExecutor

        executor = self.executor
        if executor is not None and not isinstance(executor, TaskExecutor):
            return executor
        if items < 2:
            return None
        if executor is not None:
            return executor.for_suite(suite_ref, suite_args) if suite_ref else executor
        workers = self.resolved_workers(items)
        if workers <= 1 or not factory_ref or not suite_ref:
            return None
        return ProcessExecutor(
            factory_ref, suite_ref, workers,
            suite_args=suite_args, factory_args=factory_args,
        )

    # -- cache application ----------------------------------------------------

    def apply_static_cache(self) -> None:
        """Apply ``static_cache`` / ``cache_dir`` to the process default.

        The cache layer itself treats disk I/O as best-effort (a broken
        cache must never break an analysis run), so an unusable
        ``cache_dir`` would otherwise be swallowed silently.  The user
        asked for persistence explicitly — validate here and fail with
        a one-line :class:`OSError` instead.
        """
        from ..analysis import get_default_cache

        if self.cache_dir:
            require_writable("--cache-dir", self.cache_dir)
        cache = get_default_cache()
        # Both set, not only switched on: a long-lived process (the job
        # server) applies one config per job, and a job without a
        # cache_dir must not write to an earlier job's.
        cache.enabled = self.static_cache
        cache.set_disk_dir(self.cache_dir)

    # -- recording / history ---------------------------------------------------

    def config_hash(self) -> str:
        """Short stable hash of the result-shaping knobs.

        Only fields that can change a run's *outcome* participate
        (engine choice, warning mode, oracle tolerance, budgets, seed);
        fan-out and cache switches don't — two runs differing only in
        ``workers`` hash identically, and history diffs treat them as
        the same configuration.
        """
        import hashlib

        payload = "|".join(
            str(v)
            for v in (
                self.engine,
                self.warn,
                self.tolerance,
                self.budget_seconds,
                self.budget_simulations,
                self.seed,
            )
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:12]

    def run_history(self):
        """The :class:`~repro.obs.store.RunHistory` ledger this config
        points at, or ``None`` when history recording is off."""
        if not self.history_dir:
            return None
        from ..obs.store import RunHistory

        return RunHistory(self.history_dir)


def require_writable(flag: str, path: str, is_file: bool = False) -> None:
    """Make the directory ``path`` names (for a file path, its parent)
    and check that it is writable.

    A requested output or cache location must fail up front with one
    line naming the flag, not with a traceback after a long run.
    """
    expanded = os.path.expanduser(path)
    directory = (os.path.dirname(expanded) or ".") if is_file else expanded
    reason = ""
    try:
        os.makedirs(directory, exist_ok=True)
        usable = (
            os.path.isdir(directory)
            and os.access(directory, os.W_OK)
            and not (is_file and os.path.isdir(expanded))
        )
    except OSError as exc:
        usable, reason = False, f": {exc}"
    if not usable:
        kind = "file path" if is_file else "directory"
        raise OSError(f"{flag} {path!r} is not a writable {kind}{reason}")
