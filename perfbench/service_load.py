"""The ``service`` workload: one job server and one worker per round.

A round starts ``repro-dft worker`` and ``repro-dft serve --worker``
as fresh subprocesses (set-up ends when the server answers
``/v1/healthz`` and the worker answers ``ping``), submits ``campaign
buck_boost`` and waits for its result (cold: the worker memo is empty),
then resubmits the same job :data:`WARM_JOBS` times (warm: the worker
memo answers every shard), reads both processes' peak RSS and stops
them.  One client issues one request at a time (closed loop).  A job
that raises, times out or returns the wrong coverage is a failed op and
its wall time still counts; a round whose processes do not come up is
one failed op.

In a traced run the round's jobs alternate traced and untraced,
starting with the cold job.  The client's HTTP round trips are spans
(``service.http_s``); the server-side numbers come from the traced
jobs' status documents and envelopes, per traced job:
``service.queue_wait_s`` is submit to ``running``, ``service.shard_s``
the cold jobs' median ``dynamic.remote`` span (one remote fan-out per
campaign iteration), and the shard counters come from
``progress.counters``.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from child import OUT_DIR, peak_rss_mb
from workloads import compare

JOB = {"kind": "campaign", "system": "buck_boost"}
WARM_JOBS = 5
MIN_ROUNDS = 2
#: Client poll interval while a job runs (the server itself samples
#: its queue every 0.05 s and job completion every 0.1 s).
POLL_S = 0.02
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0


class _Proc:
    """A ``python -m repro`` subprocess whose stdout is read by a thread."""

    def __init__(self, root: str, args: List[str]) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.strip())
        self.lines.put(None)

    def wait_line(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"no {prefix!r} line within {timeout}s") from None
            if line is None:
                raise RuntimeError(f"process exited before printing {prefix!r}")
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stdout.close()


def _addr(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host, int(port)


class Round:
    """One server + worker pair, started fresh and stopped at the end."""

    def __init__(self, root: str, state_dir: str) -> None:
        self.root = root
        self.state_dir = state_dir
        self.procs: List[_Proc] = []

    def start(self) -> float:
        """Start both processes; returns the set-up seconds."""
        from repro.service import healthz, request

        t0 = time.perf_counter()
        worker = _Proc(self.root, ["worker", "--port", "0"])
        self.procs.append(worker)
        worker_addr = worker.wait_line("worker listening on", START_TIMEOUT_S)
        server = _Proc(self.root, [
            "serve", "--port", "0", "--worker", worker_addr,
            "--state-dir", self.state_dir,
        ])
        self.procs.append(server)
        self.addr = _addr(server.wait_line("serving on", START_TIMEOUT_S))
        healthz(self.addr)
        request(_addr(worker_addr), {"op": "ping"}, timeout=START_TIMEOUT_S)
        return time.perf_counter() - t0

    def job(self, deadline: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Submit :data:`JOB`, wait, fetch; ``(status, envelope)``."""
        from repro.service import job_result, submit_job, wait_for_job

        job_id = submit_job(self.addr, JOB)
        status = wait_for_job(
            self.addr, job_id, poll_interval=POLL_S,
            timeout=max(0.0, min(JOB_TIMEOUT_S, deadline - time.monotonic())),
        )
        return status, job_result(self.addr, job_id)

    def peak_rss_mb(self) -> float:
        """Server plus worker; a process that has died adds nothing."""
        total = 0.0
        for p in self.procs:
            try:
                total += peak_rss_mb(str(p.proc.pid))
            except (OSError, RuntimeError):
                pass
        return total

    def stop(self) -> None:
        for proc in reversed(self.procs):
            proc.stop()


def job_problems(envelope: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """The service envelope's coverage against the local campaign's."""
    from workloads import sha256

    payload = envelope.get("payload") or {}
    if payload.get("kind") != "campaign":
        return [f"envelope kind {payload.get('kind')!r}"]
    got = {
        "service.campaign_coverage": sha256(
            json.dumps(payload.get("coverage"), sort_keys=True).encode()
        )
    }
    expected = {
        key: digest for key, digest in reference["digests"].items()
        if key.startswith("service.")
    }
    return compare(expected, got)


def run_round(
    root: str, state_dir: str, reference: Dict[str, Any], deadline: float,
    session: Any = None,
) -> Dict[str, Any]:
    """One round: set-up, job records, RSS, and the traced jobs' documents.

    Each job record holds its wall time, whether it was traced and its
    problems; ``traced`` lists ``(index, status, envelope)`` of the
    correct traced jobs (job 0 is the cold one).
    """
    record: Dict[str, Any] = {"jobs": [], "traced": [], "peak_rss_mb": None}
    rnd = Round(root, state_dir)
    t0 = time.perf_counter()
    try:
        try:
            record["setup_s"] = rnd.start()
        except Exception as exc:  # the program's processes did not come up
            record["setup_s"] = time.perf_counter() - t0
            record["jobs"].append({
                "wall": record["setup_s"], "traced": False,
                "problems": [f"round start raised {type(exc).__name__}: {exc}"],
            })
            return record
        for index in range(1 + WARM_JOBS):
            traced = session is not None and index % 2 == 0
            record["jobs"].append(
                _job(rnd, reference, deadline, session if traced else None,
                     index, record["traced"])
            )
        record["peak_rss_mb"] = rnd.peak_rss_mb()
    finally:
        rnd.stop()
        shutil.rmtree(state_dir, ignore_errors=True)
    return record


def _job(rnd, reference, deadline, session, index, traced_docs) -> Dict[str, Any]:
    from layers import OP_SPAN
    from repro.obs import telemetry_session

    problems: List[str] = []
    with contextlib.ExitStack() as stack:
        if session is not None:
            stack.enter_context(telemetry_session(session))
            stack.enter_context(session.span(OP_SPAN))
        t0 = time.perf_counter()
        try:
            status, envelope = rnd.job(deadline)
        except Exception as exc:  # a failed job is counted, not fatal
            problems.append(f"job raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
    if not problems:
        problems = job_problems(envelope, reference)
        if session is not None and not problems:
            traced_docs.append((index, status, envelope))
    return {"wall": wall, "traced": session is not None, "problems": problems}


def _layers(session, rounds) -> Dict[str, float]:
    from layers import layer_metrics, tracing_overhead

    docs = [doc for rnd in rounds for doc in rnd["traced"]]
    n = len(docs) or 1
    shard_p50 = [
        ((envelope["payload"].get("timings") or {}).get("dynamic.remote") or {})
        .get("p50", 0.0)
        for index, _, envelope in docs if index == 0
    ]
    extras = {
        "service.queue_wait_s": sum(
            status["started_at"] - status["submitted_at"] for _, status, _ in docs
        ) / n,
        "service.shard_s": statistics.median(shard_p50) if shard_p50 else 0.0,
    }
    for name in ("shards_dispatched", "shard_retries", "remote_cache_hits"):
        extras[f"service.{name}"] = sum(
            ((status.get("progress") or {}).get("counters") or {})
            .get(f"service.{name}", 0)
            for _, status, _ in docs
        ) / n
    out = layer_metrics(session.span_records(), session.metrics.records(), extras)
    out["obs.tracing_overhead"] = tracing_overhead([rnd["jobs"] for rnd in rounds])
    return out


def measure(
    root: str, seconds: float, trace: bool, reference: Dict[str, Any],
    deadline: float,
) -> Dict[str, Any]:
    """The service workload's metrics; see :mod:`run` for the contract.

    Rounds run while the next is projected to end within ``seconds``
    (at least :data:`MIN_ROUNDS`); no job waits past ``deadline`` (a
    :func:`time.monotonic` value).
    """
    from layers import install_spans
    from repro.obs import Telemetry, write_chrome_trace

    session = None
    if trace:
        uninstall = install_spans()
        session = Telemetry()
    rounds: List[Dict[str, Any]] = []
    started = time.perf_counter()
    try:
        while True:
            state_dir = os.path.join(
                OUT_DIR, f"service-state-{os.getpid()}-{len(rounds)}"
            )
            t0 = time.perf_counter()
            rounds.append(run_round(root, state_dir, reference, deadline, session))
            last = time.perf_counter() - t0
            if len(rounds) >= MIN_ROUNDS and (
                time.perf_counter() - started + last > seconds
                or time.monotonic() + last > deadline
            ):
                break
    finally:
        if trace:
            uninstall()
    jobs = [job for rnd in rounds for job in rnd["jobs"]]
    failed = sum(1 for job in jobs if job["problems"])
    for job in jobs:
        for problem in job["problems"]:
            print(f"perfbench: service job: {problem}", file=sys.stderr)
    out: Dict[str, Any] = {"attempted": len(jobs), "failed": failed}
    if trace:
        out["metrics"] = _layers(session, rounds)
        os.makedirs(OUT_DIR, exist_ok=True)
        write_chrome_trace(session, os.path.join(OUT_DIR, "trace-service.json"))
        return out
    cold = [rnd["jobs"][0]["wall"] for rnd in rounds]
    warm = [job["wall"] for rnd in rounds for job in rnd["jobs"][1:]]
    rss = [rnd["peak_rss_mb"] for rnd in rounds if rnd["peak_rss_mb"] is not None]
    out["metrics"] = {
        "setup_s": statistics.median(rnd["setup_s"] for rnd in rounds),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "op_s": statistics.median(cold),
        # With no warm job (every round failed to start) the cold walls stand in.
        "repeat_op_s": statistics.median(warm or cold),
    }
    return out
