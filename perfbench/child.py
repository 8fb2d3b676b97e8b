"""One fresh benchmark process for the in-process workloads.

``run.py`` starts this script once per measurement so that the static
memo, the instrumenter code cache and the compiled-program cache start
empty, as in one CLI session::

    python3 perfbench/child.py WORKLOAD --seconds S [--trace] [--setup-only]

It prints ``READY`` once set up (the parent times process start to this
line as ``setup_s``), then runs ops in a closed loop — at least
:data:`MIN_OPS`, and more while the next op is projected to end within
``--seconds`` of the first op's start — and ends with one line
``RESULT <json>``: per op its wall time, whether it was traced, the
problems its check found and the process's peak RSS so far.  With
``--trace`` the ops alternate traced and untraced, starting with a
traced one, and the result adds the per-layer metrics of the traced ops
(whose spans are also written to ``perfbench/out/trace-WORKLOAD.json``
as a Chrome trace) and ``obs.tracing_overhead``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

OUT_DIR = os.path.join(HERE, "out")
#: A cold op and a repeat; a traced run needs one more op so that an
#: untraced / traced pair follows the cold, traced first op.
MIN_OPS = 2
MIN_TRACED_OPS = 3


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a process, in MiB (the kernel's peak resident set)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def run_ops(workload, reference, seconds, min_ops, session=None):
    """Issue ops in a closed loop; returns ``(ops, extras)``.

    Each op record holds its wall time, whether it was traced, the
    problems its check found (a raised error is a problem too) and the
    process's peak RSS after it.  With a telemetry ``session`` every
    other op, starting with the first, runs inside it under one
    :data:`layers.OP_SPAN` root span; ``extras`` holds the per-layer
    values read off each correct traced op's output.
    """
    from repro.obs import telemetry_session

    from layers import OP_SPAN
    from workloads import check

    ops = []
    extras = []
    started = time.perf_counter()
    while True:
        traced = session is not None and len(ops) % 2 == 0
        output = None
        problems = []
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(telemetry_session(session))
                stack.enter_context(session.span(OP_SPAN))
            t0 = time.perf_counter()
            try:
                output = workload.op()
            except Exception as exc:  # a failed op is counted, not fatal
                problems.append(f"op raised {type(exc).__name__}: {exc}")
            wall = time.perf_counter() - t0
        if output is not None:
            try:
                problems.extend(check(workload, output, reference))
                if traced:
                    extras.append(workload.extras(output))
            except Exception as exc:
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        ops.append({"wall": wall, "traced": traced, "problems": problems,
                    "peak_rss_mb": peak_rss_mb()})
        elapsed = time.perf_counter() - started
        if len(ops) >= min_ops and elapsed + wall > seconds:
            break
    return ops, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]()
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = load_reference()
    session = None
    if args.trace:
        from layers import install_spans
        from repro.obs import Telemetry

        install_spans()
        session = Telemetry()

    min_ops = MIN_TRACED_OPS if args.trace else MIN_OPS
    ops, extras = run_ops(workload, reference, args.seconds, min_ops, session)
    result = {"ops": ops}
    if session is not None:
        from layers import layer_metrics, tracing_overhead
        from repro.obs import write_chrome_trace

        mean_extras = {
            key: sum(e[key] for e in extras) / len(extras)
            for key in (extras[0] if extras else {})
        }
        layers = layer_metrics(
            session.span_records(), session.metrics.records(), mean_extras
        )
        layers["obs.tracing_overhead"] = tracing_overhead([ops])
        result["layers"] = layers
        os.makedirs(OUT_DIR, exist_ok=True)
        write_chrome_trace(
            session, os.path.join(OUT_DIR, f"trace-{args.workload}.json")
        )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
