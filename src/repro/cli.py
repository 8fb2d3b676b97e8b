"""Command-line interface: ``repro-dft`` / ``python -m repro``.

Subcommands:

``list``
    Show the bundled systems and their testsuites.
``static <system>``
    Run only the static analysis and print the classified associations.
``run <system>``
    Run the full DFT pipeline (static + dynamic + coverage) with the
    system's paper testsuite and print the summary (and, with
    ``--matrix``, the Table-I exercise matrix).
``campaign <system>``
    Run the iterative refinement campaign and print the Table-II rows
    (window lifter and buck-boost only); each testcase executes once
    and its result is reused by every later iteration.
``mutate <system>``
    Run mutation analysis: seed faults with the AST/netlist operators,
    execute every mutant differentially, and print the kill matrix
    joined with the per-criterion coverage (see :mod:`repro.mutation`).
    Accepts ``random`` as the system name to mutate a seeded random
    multirate cluster (``--cluster-seed``).
``generate <system>``
    Coverage-guided testcase generation: search the system's stimulus
    parameter space for testcases that close the associations the
    bundled suite leaves uncovered (see :mod:`repro.generation`).
    Fully deterministic for a given ``--seed`` — identical across
    ``--workers`` counts and ``--engine`` choices.
``telemetry-report <file>``
    Pretty-print a telemetry JSONL file saved with ``--telemetry``
    (malformed lines are skipped and counted, not fatal).
``history {list,diff,trend}``
    Query the persistent run-history ledger: list recorded runs, diff
    two records field by field (defaults to the latest two), or print
    / export (``--export file.csv|.jsonl``) the per-class coverage
    trend (see :mod:`repro.obs.store.history`).
``serve`` / ``worker`` / ``submit``
    DFT as a service (see :mod:`repro.service`): ``serve`` runs the
    HTTP/JSON job server over a durable journaled queue, ``worker``
    runs a shard-execution daemon the server fans run/campaign jobs
    out to (``serve --worker HOST:PORT``, repeatable), and ``submit``
    posts a job to a running server and polls for its report envelope.

``run``, ``campaign``, ``mutate`` and ``generate`` are the job kinds
of :mod:`repro.jobs`: each parses its flags into a config and job
options, calls :func:`repro.jobs.run_job` — the call the job server
makes — and renders the result.  Each accepts ``--config FILE`` (TOML
or JSON of :class:`repro.core.DftConfig` fields); explicit flags
override file values, which override the job kind's defaults.

They append one record per invocation to the history ledger under the
cache directory (``--history-dir`` overrides the location,
``--no-history`` opts out).  ``--workers``, ``--engine`` and the cache
flags never change a result; ``--telemetry`` / ``--trace-events`` save
an event log / a Chrome trace of the command.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence

from .analysis.cache import DEFAULT_CACHE_DIR
from .core import (
    DftConfig,
    coverage_to_dict,
    format_iteration_table,
    format_matrix,
    format_summary,
)
from .core.config import require_writable
from .generation.search import STRATEGIES
from .generation.space import SPACES
from .jobs import (
    JOB_KINDS,
    JOB_OPTIONS,
    RANDOM_SYSTEM,
    TARGET_MODES,
    job_config,
    run_job,
)
from .systems.registry import CAMPAIGN_SYSTEMS, SYSTEMS
from .tdf.errors import TdfError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dft",
        description="Data flow testing for TDF models (DATE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    telemetry_opts = argparse.ArgumentParser(add_help=False)
    telemetry_opts.add_argument(
        "--telemetry", metavar="PATH",
        help="record telemetry and save a JSON-lines event log to PATH",
    )
    telemetry_opts.add_argument(
        "--trace-events", metavar="PATH",
        help="record telemetry and save Chrome/Perfetto trace events to PATH",
    )

    # Config-mapped flags use SUPPRESS defaults: only flags the user
    # actually passed appear on the namespace, so a ``--config FILE``
    # can layer under them (DftConfig.from_args with base=).
    cache_opts = argparse.ArgumentParser(add_help=False)
    cache_opts.add_argument(
        "--cache-dir", metavar="PATH", default=argparse.SUPPRESS,
        help=f"persist static-analysis results under PATH "
             f"(e.g. {DEFAULT_CACHE_DIR})",
    )
    cache_opts.add_argument(
        "--no-static-cache", action="store_true",
        help="disable static-analysis memoization for this invocation",
    )

    config_opts = argparse.ArgumentParser(add_help=False)
    config_opts.add_argument(
        "--config", metavar="FILE", default=None,
        help="load run configuration from a TOML or JSON file "
             "(DftConfig field names); explicit flags override file "
             "values",
    )

    # The four job kinds (repro.jobs).  Job-option flags also use
    # SUPPRESS defaults: an unpassed option takes its default from
    # repro.jobs.JOB_OPTIONS, as a service job's does.
    job_opts = argparse.ArgumentParser(
        add_help=False, parents=[telemetry_opts, cache_opts, config_opts]
    )
    job_opts.add_argument(
        "--engine", choices=["auto", "interp", "block"],
        default=argparse.SUPPRESS,
        help="TDF execution engine: the per-firing interpreter or the "
             "compiled block engine (auto = block, the default); "
             "results are bit-identical either way",
    )
    job_opts.add_argument(
        "--workers", type=int, default=argparse.SUPPRESS, metavar="N",
        help="worker processes for the testcases, mutants or candidate "
             "batches (default: run/campaign auto — serial on "
             "single-CPU hosts or suites with <2 testcases — else 1); "
             "results are identical for any worker count",
    )
    job_opts.add_argument(
        "--history-dir", metavar="PATH",
        help="append the run record to the history ledger under PATH "
             "(default: <cache-dir>/history)",
    )
    job_opts.add_argument(
        "--no-history", action="store_true",
        help="do not record this invocation in the run-history ledger",
    )
    targets_opts = argparse.ArgumentParser(add_help=False)
    targets_opts.add_argument(
        "--targets", choices=TARGET_MODES, default=argparse.SUPPRESS,
        help="'frontier' runs the subsumption pass: run adds "
             "non-subsumed target counts to the summary, mutate scores "
             "criterion sub-suites over the frontier (kill scores match "
             "'all'), generate searches only the frontier and closes "
             "subsumed pairs with their subsumer (default: all)",
    )
    report_opts = argparse.ArgumentParser(add_help=False)
    report_opts.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of text",
    )
    mutate_generate_opts = argparse.ArgumentParser(add_help=False)
    mutate_generate_opts.add_argument(
        "--output", metavar="PATH", help="also write the JSON report to PATH"
    )
    mutate_generate_opts.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, metavar="N",
        help="master seed of mutant sampling or the search (default: 0)",
    )
    mutate_generate_opts.add_argument(
        "--warm-start", action="store_true", default=argparse.SUPPRESS,
        help="reuse the per-mutant verdicts or the accepted candidates "
             "of the most recent matching history record (same design, "
             "config and suite)",
    )

    sub.add_parser("list", help="list bundled systems")

    p_static = sub.add_parser(
        "static", help="static analysis only",
        parents=[telemetry_opts, cache_opts],
    )
    p_static.add_argument("system", choices=sorted(SYSTEMS))

    p_run = sub.add_parser(
        "run", help="full DFT pipeline",
        parents=[job_opts, targets_opts, report_opts],
    )
    p_run.add_argument("system", choices=sorted(SYSTEMS))
    p_run.add_argument("--matrix", action="store_true", help="print the Table-I matrix")
    p_run.add_argument(
        "--max-missed", type=int, default=20, help="missed associations to list"
    )

    p_campaign = sub.add_parser(
        "campaign", help="iterative refinement (Table II)", parents=[job_opts],
    )
    p_campaign.add_argument("system", choices=CAMPAIGN_SYSTEMS)

    p_mutate = sub.add_parser(
        "mutate", help="mutation analysis (kill matrix + criterion join)",
        parents=[job_opts, targets_opts, report_opts, mutate_generate_opts],
    )
    p_mutate.add_argument(
        "system", choices=sorted(SYSTEMS) + [RANDOM_SYSTEM],
        help="bundled system, or 'random' for a seeded random cluster",
    )
    p_mutate.add_argument(
        "--operators", nargs="+", metavar="OP", default=argparse.SUPPRESS,
        help="restrict to the named mutation operators (default: all)",
    )
    p_mutate.add_argument(
        "--max-mutants", type=int, default=argparse.SUPPRESS, metavar="N",
        help="deterministically sample at most N mutants (default: all)",
    )
    p_mutate.add_argument(
        "--tolerance", type=float, default=argparse.SUPPRESS, metavar="EPS",
        help="absolute trace-divergence tolerance (default: 1e-9)",
    )
    p_mutate.add_argument(
        "--budget-seconds", type=float, default=argparse.SUPPRESS,
        metavar="S",
        help="per-mutant wall budget; slower mutants are flagged "
             "timed_out (default: 30)",
    )
    p_mutate.add_argument(
        "--cluster-seed", type=int, default=argparse.SUPPRESS, metavar="N",
        help="construction seed for the 'random' system (default: 0)",
    )
    p_mutate.add_argument(
        "--suite-ref", metavar="MODULE:ATTR", default=argparse.SUPPRESS,
        help="override the testsuite with an importable reference to a "
             "callable returning testcases",
    )
    p_mutate.add_argument(
        "--no-criteria", action="store_true", default=argparse.SUPPRESS,
        help="skip the coverage run and the criterion-vs-score join",
    )
    p_mutate.add_argument(
        "--csv", metavar="PATH", help="also write one CSV row per mutant to PATH"
    )

    p_generate = sub.add_parser(
        "generate", help="coverage-guided testcase generation",
        parents=[job_opts, targets_opts, report_opts, mutate_generate_opts],
    )
    p_generate.add_argument(
        "system", choices=sorted(SPACES),
        help="bundled system with a stimulus parameter space",
    )
    p_generate.add_argument(
        "--budget-simulations", type=int, default=argparse.SUPPRESS,
        metavar="N",
        help="stop after N executed candidate simulations (default: 200; "
             "memoized re-proposals are free)",
    )
    p_generate.add_argument(
        "--budget-seconds", type=float, default=argparse.SUPPRESS,
        metavar="S",
        help="wall-clock budget for the whole search (default: none; "
             "the only knob that can make otherwise identical runs "
             "diverge)",
    )
    p_generate.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default=argparse.SUPPRESS,
        help="search strategy (default: mutation — random warm-up, then "
             "(1+lambda) mutation of the best candidate; guided — "
             "rank-weighted elite archive exploiting the graded du-path "
             "fitness)",
    )

    p_report = sub.add_parser(
        "telemetry-report",
        help="pretty-print a telemetry JSONL file saved with --telemetry",
    )
    p_report.add_argument("file", help="path to the saved .jsonl event log")
    p_report.add_argument(
        "--no-metrics", action="store_true", help="show only the span tree"
    )

    p_history = sub.add_parser(
        "history",
        help="query the persistent run-history ledger (list / diff / trend)",
    )
    p_history.add_argument(
        "action", choices=["list", "diff", "trend"],
        help="list records, diff two records, or show the coverage trend",
    )
    p_history.add_argument(
        "runs", nargs="*", metavar="RUN_ID",
        help="for diff: two run-id prefixes (default: the latest two "
             "matching records)",
    )
    p_history.add_argument(
        "--history-dir", metavar="PATH",
        help="history ledger directory (default: <cache-dir>/history)",
    )
    p_history.add_argument(
        "--cache-dir", metavar="PATH",
        help="cache directory the default ledger lives under",
    )
    p_history.add_argument(
        "--system", metavar="NAME", help="only records for this system"
    )
    p_history.add_argument(
        "--kind", choices=["run", "campaign", "mutation", "generation"],
        help="only records of this kind",
    )
    p_history.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="only the most recent N matching records",
    )
    p_history.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the table",
    )
    p_history.add_argument(
        "--export", metavar="PATH",
        help="for trend: also write the rows to PATH "
             "(.csv -> CSV, anything else -> JSON-lines)",
    )

    p_worker = sub.add_parser(
        "worker",
        help="run a shard-execution worker daemon (NDJSON over TCP)",
    )
    p_worker.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="interface to bind (default: 127.0.0.1)",
    )
    p_worker.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="TCP port (default: 0 = ephemeral; the bound address is "
             "printed as 'worker listening on HOST:PORT')",
    )

    p_serve = sub.add_parser(
        "serve", help="run the HTTP/JSON job server",
        parents=[cache_opts],
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="interface to bind (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8437, metavar="N",
        help="TCP port (default: 8437; 0 = ephemeral)",
    )
    p_serve.add_argument(
        "--worker", action="append", default=None, metavar="HOST:PORT",
        help="remote worker address (repeatable); run/campaign jobs "
             "shard across the fleet (default: none — jobs run locally)",
    )
    p_serve.add_argument(
        "--state-dir", metavar="PATH",
        help="durable job-journal directory (default: the run-history "
             "ledger directory, <cache-dir>/history)",
    )

    p_submit = sub.add_parser(
        "submit", help="submit a job to a running job server",
        parents=[config_opts],
    )
    p_submit.add_argument(
        "kind", choices=JOB_KINDS,
        help="job kind",
    )
    p_submit.add_argument("system", help="system name known to the server")
    p_submit.add_argument(
        "--server", default="127.0.0.1:8437", metavar="HOST:PORT",
        help="job server address (default: 127.0.0.1:8437)",
    )
    p_submit.add_argument(
        "--option", action="append", default=None, metavar="KEY=VALUE",
        help="kind-specific job option (VALUE is JSON-decoded when "
             "possible; repeatable)",
    )
    p_submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and exit instead of polling for the result",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="seconds to wait for completion (default: 600)",
    )
    p_submit.add_argument(
        "--json", action="store_true",
        help="print the full result envelope as JSON (default: a "
             "one-line summary)",
    )
    return parser


def _validate_output_paths(args) -> None:
    """Fail fast when a requested output file cannot be written.

    The same up-front contract as ``--cache-dir``: the analysis may run
    for minutes while the telemetry/trace write only happens at the
    end, so an unusable path must be a one-line error *before* the run,
    not a traceback after it.
    """
    for flag, attr in (("--telemetry", "telemetry"),
                       ("--trace-events", "trace_events")):
        path = getattr(args, attr, None)
        if path:
            require_writable(flag, path, is_file=True)


def _config_base(args) -> DftConfig:
    """The base config explicit flags layer onto.

    Three layers, least binding first: the job kind's defaults
    (:data:`repro.jobs.JOB_DEFAULTS`), then the fields a ``--config
    FILE`` sets, then (via :meth:`DftConfig.from_args` with ``base=``)
    the flags the user actually passed — config-mapped flags register
    with ``argparse.SUPPRESS`` defaults, so unpassed flags never mask
    the file.
    """
    path = getattr(args, "config", None)
    return job_config(args.command, DftConfig.file_overrides(path) if path else {})


def _resolve_history(args, cfg: DftConfig) -> DftConfig:
    """Fold the ``--history-dir`` / ``--no-history`` flags into ``cfg``.

    History is on by default, living under the cache directory; an
    *explicitly* requested directory is validated up front (like
    ``--cache-dir``), while the implicit default stays best-effort —
    the ledger being unwritable must never fail an analysis run the
    user did not ask to record.
    """
    if getattr(args, "no_history", False):
        return cfg.replace(history_dir=None)
    explicit = getattr(args, "history_dir", None)
    if explicit:
        require_writable("--history-dir", explicit)
        return cfg.replace(history_dir=explicit)
    from .obs.store import default_history_dir

    return cfg.replace(history_dir=default_history_dir(cfg.cache_dir))


@contextmanager
def _maybe_telemetry(args) -> Iterator[None]:
    """Record and export telemetry when either output flag was given."""
    telemetry_path = getattr(args, "telemetry", None)
    trace_path = getattr(args, "trace_events", None)
    if not telemetry_path and not trace_path:
        yield
        return
    from .obs import telemetry_session, write_chrome_trace, write_jsonl

    with telemetry_session() as tel:
        yield
    if telemetry_path:
        write_jsonl(tel, telemetry_path)
        print(f"telemetry event log written to {telemetry_path}", file=sys.stderr)
    if trace_path:
        write_chrome_trace(tel, trace_path)
        print(
            f"trace events written to {trace_path} "
            f"(load in chrome://tracing or https://ui.perfetto.dev)",
            file=sys.stderr,
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Failures to import or build the target system exit with status 1
    and a one-line error instead of a traceback.
    """
    args = _build_parser().parse_args(argv)
    try:
        _validate_output_paths(args)
        with _maybe_telemetry(args):
            return _dispatch(args)
    except ImportError as exc:
        print(f"repro-dft: error: cannot import target system: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        return 0
    except (TdfError, ValueError, OSError) as exc:
        print(f"repro-dft: error: {exc}", file=sys.stderr)
        return 1


def _cmd_job(args) -> int:
    """``run`` / ``campaign`` / ``mutate`` / ``generate``: one
    :func:`repro.jobs.run_job` call, then the rendering the flags ask
    for."""
    if getattr(args, "max_missed", 0) < 0:
        raise ValueError(f"--max-missed must be >= 0, got {args.max_missed}")
    cfg = _resolve_history(args, DftConfig.from_args(args, base=_config_base(args)))
    options = {
        key: getattr(args, key)
        for key in JOB_OPTIONS[args.command] if hasattr(args, key)
    }
    job = run_job(args.command, args.system, cfg, options)

    if args.command == "run":
        result = job.result
        if args.json:
            print(json.dumps(coverage_to_dict(result.coverage), indent=2))
            return 0
        if args.matrix:
            print(format_matrix(result.coverage))
            print()
        subsumption = None
        if getattr(args, "targets", "all") == "frontier":
            from .analysis import analyze_subsumption

            subsumption = analyze_subsumption(result.static)
        print(format_summary(
            result.coverage, max_missed=args.max_missed,
            subsumption=subsumption,
        ))
        return 0

    if args.command == "campaign":
        print(format_iteration_table(job.result))
        return 0

    if args.command == "mutate":
        from .mutation import format_report, write_csv

        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as stream:
                write_csv(job.payload, stream)
            print(f"mutation CSV written to {args.csv}", file=sys.stderr)
        label = "mutation"
    else:
        from .generation import format_report

        label = "generation"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            json.dump(job.payload, stream, indent=2)
            stream.write("\n")
        print(f"{label} report written to {args.output}", file=sys.stderr)
    if args.json:
        print(json.dumps(job.payload, indent=2))
    else:
        print(format_report(job.payload))
    return 0


def _cmd_history(args) -> int:
    from .obs.store import (
        RunHistory,
        default_history_dir,
        diff_records,
        format_diff,
        format_history_table,
        format_trend,
        trend_rows,
    )

    directory = args.history_dir or default_history_dir(args.cache_dir)
    history = RunHistory(directory)
    records = history.records(
        system=args.system, kind=args.kind, limit=args.limit
    )

    if args.action == "diff":
        if args.runs:
            if len(args.runs) != 2:
                raise ValueError(
                    "history diff takes exactly two run ids "
                    "(or none for the latest two matching records)"
                )
            pair = []
            for run_id in args.runs:
                record = history.get(run_id)
                if record is None:
                    raise ValueError(
                        f"run id {run_id!r} not found in {history.path}"
                    )
                pair.append(record)
        else:
            if len(records) < 2:
                raise ValueError(
                    f"history diff needs two recorded runs; the ledger at "
                    f"{history.path} has {len(records)} matching"
                )
            pair = records[-2:]
        diff = diff_records(pair[0], pair[1])
        if args.json:
            print(json.dumps(diff, indent=2))
        else:
            print(format_diff(diff))
        return 0

    if args.action == "trend":
        rows = trend_rows(records)
        if args.export:
            from .obs import write_trend_csv, write_trend_jsonl

            if args.export.endswith(".csv"):
                write_trend_csv(rows, args.export)
            else:
                write_trend_jsonl(rows, args.export)
            print(f"trend export written to {args.export}", file=sys.stderr)
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(format_trend(rows))
        return 0

    if args.json:
        print(json.dumps(records, indent=2))
    else:
        print(format_history_table(records))
    return 0


def _cmd_serve(args) -> int:
    from .service import parse_worker_addr
    from .service.server import serve

    worker_addrs = [parse_worker_addr(spec) for spec in (args.worker or [])]
    state_dir = args.state_dir
    if not state_dir:
        from .obs.store import default_history_dir

        state_dir = default_history_dir(getattr(args, "cache_dir", None))
    return serve(
        state_dir, host=args.host, port=args.port, worker_addrs=worker_addrs
    )


def _parse_submit_options(pairs: Optional[Sequence[str]]) -> Dict[str, object]:
    """``--option KEY=VALUE`` pairs (VALUE JSON-decoded when possible)."""
    options: Dict[str, object] = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"--option expects KEY=VALUE, got {pair!r}"
            )
        try:
            options[key] = json.loads(raw)
        except ValueError:
            options[key] = raw
    return options


def _cmd_submit(args) -> int:
    from .service import (
        ServiceError,
        job_result,
        parse_worker_addr,
        submit_job,
        wait_for_job,
    )

    addr = parse_worker_addr(args.server)
    config = (
        DftConfig.file_overrides(args.config) if args.config else {}
    )
    spec = {
        "kind": args.kind,
        "system": args.system,
        "config": config,
        "options": _parse_submit_options(args.option),
    }
    try:
        job_id = submit_job(addr, spec)
    except ConnectionError as exc:
        raise OSError(
            f"cannot reach job server at {args.server}: {exc}"
        ) from None
    except ServiceError as exc:
        raise ValueError(f"job rejected: {exc}") from None
    if args.no_wait:
        print(job_id)
        return 0
    print(f"submitted {job_id}", file=sys.stderr)
    try:
        wait_for_job(addr, job_id, timeout=args.timeout)
    except ServiceError as exc:
        raise ValueError(f"job {job_id}: {exc}") from None
    envelope = job_result(addr, job_id)
    if args.json:
        print(json.dumps(envelope, indent=2))
        return 0
    payload = envelope.get("payload") or {}
    line = f"{job_id} done schema={envelope.get('schema')}"
    coverage = payload.get("coverage")
    if isinstance(coverage, dict) and "totals" in coverage:
        totals = coverage["totals"]
        line += (
            f" coverage={totals.get('percent')}% "
            f"({totals.get('exercised')}/{totals.get('static')})"
        )
    print(line)
    return 0


def _dispatch(args) -> int:
    if args.command == "list":
        for name in sorted(SYSTEMS):
            suite = SYSTEMS[name].base_suite(name)
            print(f"{name:15s} {len(suite)} testcases")
        return 0

    if args.command == "static":
        from .analysis import analyze_cluster
        from .obs import get_telemetry

        DftConfig.from_args(args).apply_static_cache()
        with get_telemetry().span("static", system=args.system):
            result = analyze_cluster(SYSTEMS[args.system].factory()())
        print(f"cluster: {result.cluster}")
        counts = result.counts()
        total = len(result.associations)
        print(f"associations: {total} total, " + ", ".join(
            f"{klass.value}={count}" for klass, count in counts.items()
        ))
        for assoc in result.associations:
            print(f"  [{assoc.klass.value:6s}] {assoc}")
        if result.undriven_input_ports:
            print("undriven input ports (use-without-def candidates):")
            for port in result.undriven_input_ports:
                print(f"  {port}")
        return 0

    if args.command in JOB_KINDS:
        return _cmd_job(args)

    if args.command == "telemetry-report":
        from .obs import format_tree, read_jsonl

        run = read_jsonl(args.file, strict=False)
        if run["skipped_lines"]:
            # Tolerate a corrupted tail or foreign records, but a file
            # with *no* valid telemetry lines is the wrong file, not a
            # damaged one.
            if not (run["meta"] or run["spans"] or run["metrics"]):
                raise ValueError(
                    f"{args.file} is not a telemetry event log (unknown "
                    f"telemetry record type on every line; "
                    f"{run['skipped_lines']} line(s) skipped)"
                )
            print(
                f"repro-dft: warning: skipped {run['skipped_lines']} "
                f"malformed line(s) in {args.file}",
                file=sys.stderr,
            )
        print(format_tree(run, metrics=not args.no_metrics))
        return 0

    if args.command == "history":
        return _cmd_history(args)

    if args.command == "worker":
        from .service import serve_worker

        return serve_worker(args.host, args.port)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "submit":
        return _cmd_submit(args)

    return 2  # pragma: no cover - argparse enforces commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
