"""One job layer for the CLI and the job server.

A *job* is one DFT workload on one system, addressed by kind:

* ``run`` — one pipeline pass over the system's base suite (paper
  Fig. 3); the payload is the ``run`` history record;
* ``campaign`` — the Table-II refinement campaign; the payload is the
  ``campaign`` history record;
* ``mutate`` — mutation analysis joined with the criteria; the payload
  is the ``repro-dft-mutation/1`` report.  ``system`` may also be
  ``random``, a seeded random multirate cluster (``cluster_seed``);
* ``generate`` — coverage-guided testcase generation; the payload is
  the ``repro-dft-generation/1`` report.

``repro-dft <kind>`` and the server's job thread both build a config
with :func:`job_config`, call :func:`run_job` and then only render the
result (text, ``--json``, ``--csv``, ``--output``) or wrap it in a
report envelope.  The server calls :func:`check_job` when a job is
posted, so a bad spec is a ``400``, not a failed job.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, NamedTuple, Optional

from .core.config import DftConfig
from .exec.refs import resolve_ref
from .systems.registry import CAMPAIGN_SYSTEMS, system_entry

#: The job kinds, in CLI-subcommand order.
JOB_KINDS = ("run", "campaign", "mutate", "generate")

#: Per-kind config values that differ from the :class:`DftConfig`
#: defaults.  A ``--config`` file or a submitted config layers over
#: them, and explicit CLI flags over both.
JOB_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "run": {"workers": None},        # auto fan-out
    "campaign": {"workers": None},   # auto fan-out
    "generate": {"budget_simulations": 200},
}

#: Per-kind job options and their defaults; each is the CLI flag of
#: the same name.
JOB_OPTIONS: Dict[str, Dict[str, Any]] = {
    "run": {},
    "campaign": {},
    "mutate": {
        "operators": None, "max_mutants": None, "suite_ref": None,
        "no_criteria": False, "targets": "all", "cluster_seed": 0,
    },
    "generate": {"strategy": "mutation", "targets": "all"},
}

TARGET_MODES = ("all", "frontier")

#: The seeded random cluster ``mutate`` accepts besides the registry.
RANDOM_SYSTEM = "random"


class JobRefs(NamedTuple):
    """The importable references a job's shard tasks rebuild from."""

    factory_ref: str
    suite_ref: str
    factory_args: tuple = ()
    suite_args: tuple = ()


class JobResult(NamedTuple):
    """The payload, the static fingerprint of the system's cluster, and
    the live result the CLI renders text from (a ``PipelineResult``,
    the campaign's iteration records, a ``MutationRun`` or a
    ``GenerationResult``)."""

    payload: Dict[str, Any]
    fingerprint: Optional[str]
    result: Any


def job_config(kind: str, values: Mapping[str, Any]) -> DftConfig:
    """``kind``'s defaults with the config fields ``values`` sets
    (validated by :meth:`DftConfig.from_json`)."""
    return DftConfig.from_json({**JOB_DEFAULTS.get(kind, {}), **values})


def check_job(kind: str, system: str, options: Mapping[str, Any]) -> None:
    """Raise a one-line :class:`ValueError` if the spec cannot run."""
    if kind not in JOB_KINDS:
        raise ValueError(f"unknown job kind {kind!r}; expected one of {JOB_KINDS}")
    known = JOB_OPTIONS[kind]
    unknown = sorted(set(options) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {kind} option(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known)) or 'none'})"
        )
    if not (kind == "mutate" and system == RANDOM_SYSTEM):
        entry = system_entry(system)
        if kind == "campaign" and entry.campaign_ref is None:
            raise ValueError(
                f"no campaign defined for system {system!r} "
                f"(available: {', '.join(CAMPAIGN_SYSTEMS)})"
            )
    if options.get("targets", "all") not in TARGET_MODES:
        raise ValueError(
            f"targets must be one of {', '.join(TARGET_MODES)}, "
            f"got {options['targets']!r}"
        )
    if kind == "mutate":
        from .mutation.operators import select_operators

        select_operators(options.get("operators"))
    if kind == "generate":
        from .generation import make_strategy, space_for
        from .tdf.errors import TdfError

        try:
            space_for(system)
            make_strategy(options.get("strategy"))
        except TdfError as exc:
            raise ValueError(str(exc)) from None


def job_refs(system: str, options: Mapping[str, Any]) -> JobRefs:
    """The references of ``system``'s factory and of the suite its
    shard tasks pick testcases from."""
    if system == RANDOM_SYSTEM:
        seed = (options.get("cluster_seed", 0),)
        suite_ref = options.get("suite_ref")
        return JobRefs(
            "repro.testing.generate:random_cluster_factory",
            suite_ref or "repro.testing.generate:random_suite",
            factory_args=seed,
            suite_args=() if suite_ref else seed,
        )
    entry = system_entry(system)
    return JobRefs(
        entry.factory_ref, options.get("suite_ref") or entry.all_suite_ref
    )


def run_job(
    kind: str,
    system: str,
    cfg: DftConfig,
    options: Optional[Mapping[str, Any]] = None,
) -> JobResult:
    """Check one job (:func:`check_job`), apply ``cfg``'s static-cache
    switches and run it."""
    check_job(kind, system, options or {})
    opts = {**JOB_OPTIONS[kind], **(options or {})}
    cfg.apply_static_cache()
    return _RUNNERS[kind](system, cfg, opts)


def _run(system: str, cfg: DftConfig, options: Dict[str, Any]) -> JobResult:
    from .core.pipeline import run_dft, run_record

    entry = system_entry(system)
    suite = entry.base_suite(system)
    executor = cfg.make_executor(
        entry.factory_ref, entry.all_suite_ref, len(suite)
    )
    result = run_dft(entry.factory(), suite, cfg.replace(executor=executor))
    return JobResult(
        run_record(cfg, suite, result), result.static.fingerprint, result
    )


def _campaign(system: str, cfg: DftConfig, options: Dict[str, Any]) -> JobResult:
    campaign = resolve_ref(system_entry(system).campaign_ref)(config=cfg)
    records = campaign.run()
    return JobResult(
        campaign.record, records[-1].coverage.static.fingerprint, records
    )


def _mutate(system: str, cfg: DftConfig, options: Dict[str, Any]) -> JobResult:
    from .mutation import build_report, criteria_report, run_mutation

    refs = job_refs(system, options)
    run = run_mutation(
        refs.factory_ref,
        refs.suite_ref,
        cfg,
        factory_args=refs.factory_args,
        suite_args=refs.suite_args,
        operators=options["operators"],
        max_mutants=options["max_mutants"],
    )
    if options["no_criteria"]:
        payload = build_report(run, system=system)
    else:
        payload = criteria_report(
            run, system, factory_args=refs.factory_args,
            suite_args=refs.suite_args, targets=options["targets"],
        )
    return JobResult(payload, run.fingerprint, run)


def _generate(system: str, cfg: DftConfig, options: Dict[str, Any]) -> JobResult:
    from .generation import build_report, generate_suite

    entry = system_entry(system)
    result = generate_suite(
        entry.factory(),
        entry.base_suite(system),
        system,
        cfg,
        factory_ref=entry.factory_ref,
        suite_ref=entry.all_suite_ref,
        strategy=options["strategy"],
        target_mode=options["targets"],
    )
    return JobResult(
        build_report(result), result.pipeline.static.fingerprint, result
    )


_RUNNERS = {
    "run": _run,
    "campaign": _campaign,
    "mutate": _mutate,
    "generate": _generate,
}
