"""The repository's benchmark: four workloads of the DFT toolkit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 27 --trace 0

``--workload all`` measures the four workloads in turn and prints one
result line for each.  ``--seed`` is accepted for the common benchmark
command line; the inputs are fixed (see :mod:`workloads`).

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``pipeline`` — ``run_dft`` + text report on the four bundled systems;
* ``mutation`` — ``run_mutation`` kill matrix on buck_boost;
* ``directed`` — ``generate_suite`` with frontier targets and the
  guided search on buck_boost;
* ``service`` — ``campaign buck_boost`` jobs through ``repro-dft
  serve`` and one ``repro-dft worker``.

One caller issues one op at a time (closed loop) with the default
:class:`repro.DftConfig`.  An in-process run starts :data:`PROCESSES`
fresh processes in turn, each issuing ops for its share of
``--seconds``; a ``service`` run starts fresh server and worker
processes once per round (see :mod:`service_load`).  With ``--trace 0``
the run prints the end-to-end metrics:

* ``setup_s`` — process start until the first op can be issued, median
  of :data:`SETUP_SAMPLES` fresh processes (``service``: of the rounds'
  server and worker start-ups until both answer);
* ``peak_rss_mb`` — ``VmHWM`` of a process after its first op, median
  over the processes (``service``: server plus worker after the round,
  median over rounds);
* ``op_s`` — median of the processes' first ops, whose caches are cold
  (``service``: the rounds' cold jobs);
* ``repeat_op_s`` — median of all later ops (``service``: the
  resubmitted jobs the worker memo answers).

With ``--trace 1`` one fresh process alternates traced and untraced ops
for ``--seconds`` and the run prints the per-layer metrics of the
traced ops plus ``obs.tracing_overhead``, the median traced / untraced
wall of adjacent op pairs.  Every op's output is checked against
``reference.json``; a wrong output or a raised error counts as a failed
op, and its wall time still counts.  The last line of standard output
is the JSON result; diagnostics go to standard error.  Exit status 2
means the benchmark itself could not run (no ``src/repro`` next to it,
or a benchmark process that exited without a result).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("pipeline", "mutation", "directed", "service")
#: Hard stop for one workload's measurement, inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
#: Fresh measuring processes per in-process run (so cold ops have a median).
PROCESSES = 3
#: Set-up samples per in-process run; the ones beyond :data:`PROCESSES`
#: come from processes that only set up.
SETUP_SAMPLES = 5


class BenchError(RuntimeError):
    """The benchmark itself could not measure (not a failed op)."""


def spawn(deadline: float, workload: str, seconds: float, *extra: str) -> Dict[str, Any]:
    """Run :mod:`child` once; returns its result plus ``setup_s``.

    The child is killed at ``deadline`` (a :func:`time.monotonic` value).
    """
    cmd = [sys.executable, CHILD, workload, "--seconds", str(seconds), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    setup_s: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None:
        raise BenchError(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    if result is None and "--setup-only" not in extra:
        raise BenchError(f"{' '.join(cmd[1:])} printed no result")
    out = dict(result or {})
    out["setup_s"] = setup_s
    return out


def count_failed(ops: List[Dict[str, Any]]) -> int:
    """Failed ops (each with at least one problem), reported on stderr."""
    failed = 0
    for op in ops:
        if op["problems"]:
            failed += 1
            for problem in op["problems"]:
                print(f"perfbench: failed op: {problem}", file=sys.stderr)
    return failed


def measure_in_process(
    workload: str, seconds: float, trace: bool, deadline: float
) -> Dict[str, Any]:
    if trace:
        run = spawn(deadline, workload, seconds, "--trace")
        return {"attempted": len(run["ops"]), "failed": count_failed(run["ops"]),
                "metrics": run["layers"]}
    runs = [spawn(deadline, workload, seconds / PROCESSES) for _ in range(PROCESSES)]
    setups = [run["setup_s"] for run in runs] + [
        spawn(deadline, workload, seconds, "--setup-only")["setup_s"]
        for _ in range(SETUP_SAMPLES - PROCESSES)
    ]
    ops = [op for run in runs for op in run["ops"]]
    print("perfbench: op walls per process: " + " | ".join(
        " ".join(f"{op['wall']:.3f}" for op in run["ops"]) for run in runs
    ), file=sys.stderr)
    return {
        "attempted": len(ops),
        "failed": count_failed(ops),
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(run["ops"][0]["peak_rss_mb"] for run in runs),
            "op_s": statistics.median(run["ops"][0]["wall"] for run in runs),
            "repeat_op_s": statistics.median(
                op["wall"] for run in runs for op in run["ops"][1:]
            ),
        },
    }


def run_workload(workload: str, seconds: float, trace: bool) -> int:
    """Measure one workload and print its result line; returns the exit code."""
    from layers import SELF_TIME_METRICS
    from metrics import result_line

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if workload == "service":
            sys.path.insert(0, os.path.join(ROOT, "src"))
            from service_load import measure
            from workloads import load_reference

            summary = measure(ROOT, seconds, trace, load_reference(), deadline)
        else:
            summary = measure_in_process(workload, seconds, trace, deadline)
    except (BenchError, OSError) as exc:
        print(f"perfbench: error: {workload}: {exc}", file=sys.stderr)
        return 2
    values = summary["metrics"]
    correct = summary["failed"] == 0
    if trace and values["obs.attributed_share"] > 1.0 + 1e-9:
        print("perfbench: layer self times exceed the traced wall "
              f"({values['obs.attributed_share']:.4f})", file=sys.stderr)
        correct = False
    if trace:
        print("perfbench: self time per op: " + ", ".join(
            f"{name}={values[name]:.3f}" for name in SELF_TIME_METRICS
            if values[name]
        ), file=sys.stderr)
    print(f"perfbench: {workload}: {summary['attempted']} ops, "
          f"error_rate {summary['failed'] / summary['attempted']:.3f}",
          file=sys.stderr)
    print(result_line(correct, summary["attempted"], summary["failed"], values, trace),
          flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the DFT toolkit on one workload (or all four)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help="accepted and ignored: the inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: error: no repro sources at {os.path.join(ROOT, 'src')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(
        run_workload(name, args.seconds, bool(args.trace))
        for name in names
    )


if __name__ == "__main__":
    sys.exit(main())
