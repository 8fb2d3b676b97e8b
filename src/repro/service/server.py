"""The asyncio HTTP/JSON job server (``repro-dft serve``).

A deliberately small HTTP/1.1 surface, hand-rolled on
``asyncio.start_server`` (stdlib only — no web framework):

* ``POST /v1/jobs`` — submit a job: ``{"kind", "system", "config",
  "options"}`` (:class:`~repro.service.jobs.JobSpec`).  A malformed
  body, a bad config and a spec :func:`repro.jobs.check_job` refuses
  get a ``400`` with a one-line ``{"error": ...}``.
* ``GET /v1/jobs/{id}`` — lifecycle + progress
  (``queued → running → done | failed``; progress is sampled off the
  job's live obs telemetry session while it runs).
* ``GET /v1/jobs/{id}/result`` — the unified report envelope
  (:func:`repro.core.report.make_envelope`), verbatim.
* ``GET /v1/healthz`` — liveness + queue depth + fleet size.

Jobs execute one at a time on a worker thread through
:func:`repro.jobs.run_job`, the call the CLI makes (a job is itself
parallel — across remote shard workers or a local process pool), and
the queue is journaled (:class:`~repro.service.jobs.JobQueue`) so a
restarted server resumes its queued jobs.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import Telemetry, get_telemetry
from .jobs import JobQueue, JobSpec

_MAX_BODY_BYTES = 8 * 1024 * 1024
_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}

#: Counter-name prefixes worth surfacing as job progress.
_PROGRESS_PREFIXES = (
    "pipeline.", "exec.", "service.", "generation.", "mutation.",
)


def _progress_snapshot(tel: Telemetry) -> Dict[str, Any]:
    """A compact read of a live telemetry session (race-tolerant).

    The job thread mutates the session while we read it; plain-dict
    reads are safe enough for a heartbeat, and any torn read is
    replaced by the next sample.
    """
    snap: Dict[str, Any] = {}
    try:
        counters: Dict[str, float] = {}
        for counter in tel.metrics.counters():
            if counter.name.startswith(_PROGRESS_PREFIXES):
                counters[counter.name] = (
                    counters.get(counter.name, 0) + counter.value
                )
        if counters:
            snap["counters"] = counters
        current = tel.current_span()
        if current is not None:
            snap["stage"] = current.name
    except Exception:  # pragma: no cover - torn concurrent read
        pass
    return snap


def _execute_job(
    spec: JobSpec,
    tel: Telemetry,
    worker_addrs: Sequence[Tuple[str, int]],
) -> Dict[str, Any]:
    """Run one job through :func:`repro.jobs.run_job`, as the CLI does,
    sharding its tasks over the fleet if there is one; returns the
    report envelope."""
    from ..core import make_envelope
    from ..jobs import job_config, job_refs, run_job
    from .remote import RemoteExecutor

    cfg = job_config(spec.kind, spec.config).replace(telemetry=tel)
    if worker_addrs:
        refs = job_refs(spec.system, spec.options)
        cfg = cfg.replace(executor=RemoteExecutor(
            worker_addrs, refs.factory_ref, refs.suite_ref,
            suite_args=refs.suite_args, factory_args=refs.factory_args,
            seed=cfg.seed,
        ))
    job = run_job(spec.kind, spec.system, cfg, spec.options)
    return make_envelope(
        job.payload, config_hash=cfg.config_hash(), fingerprint=job.fingerprint
    )


class JobServer:
    """HTTP front end + single-consumer job runner over a durable queue."""

    def __init__(
        self,
        state_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_addrs: Sequence[Tuple[str, int]] = (),
    ) -> None:
        self.host = host
        self.port = port  # 0 = ephemeral; resolved after start()
        self.queue = JobQueue(state_dir)
        self.worker_addrs = [tuple(addr) for addr in worker_addrs]
        self._server: Optional[asyncio.AbstractServer] = None
        self._runner: Optional[asyncio.Task] = None
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-dft-job"
        )
        self._shutdown = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind, start serving and start the job runner."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._runner = asyncio.ensure_future(self._drain())
        return self.host, self.port

    async def wait_closed(self) -> None:
        await self._shutdown.wait()
        if self._runner is not None:
            self._runner.cancel()
            try:
                await self._runner
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False)

    def close(self) -> None:
        self._shutdown.set()

    def start_in_thread(self) -> Tuple[str, int]:
        """Run the server on a daemon thread; returns the bound address."""
        started = threading.Event()
        addr: List[Any] = []

        def _run() -> None:
            async def _main() -> None:
                await self.start()
                addr.append((self.host, self.port))
                started.set()
                await self.wait_closed()

            asyncio.run(_main())

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        if not started.wait(timeout=10.0):  # pragma: no cover - startup hang
            raise RuntimeError("job server failed to start")
        self._thread = thread
        return addr[0]

    # -- job runner ----------------------------------------------------------

    async def _drain(self) -> None:
        """Single consumer: oldest queued job runs next, to completion."""
        loop = asyncio.get_running_loop()
        tel_root = get_telemetry()
        while True:
            job = self.queue.next_queued()
            if job is None:
                await asyncio.sleep(0.05)
                continue
            self.queue.mark_running(job.id)
            tel = Telemetry()
            future = loop.run_in_executor(
                self._pool, _execute_job, job.spec, tel, self.worker_addrs
            )
            while not future.done():
                await asyncio.sleep(0.1)
                self.queue.mark_progress(job.id, _progress_snapshot(tel))
            try:
                envelope = future.result()
            except (Exception, SystemExit) as exc:  # a job never ends the loop
                self.queue.mark_failed(
                    job.id, f"{type(exc).__name__}: {exc}"
                )
                if tel_root.enabled:
                    tel_root.metrics.counter(
                        "service.jobs_failed", kind=job.spec.kind
                    ).inc()
            else:
                self.queue.mark_progress(job.id, _progress_snapshot(tel))
                self.queue.mark_done(job.id, envelope)
                if tel_root.enabled:
                    tel_root.metrics.counter(
                        "service.jobs_done", kind=job.spec.kind
                    ).inc()

    # -- HTTP ----------------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            status, doc = await self._serve_one(reader)
        except Exception as exc:  # pragma: no cover - handler bug guard
            status, doc = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(doc, separators=(",", ":")).encode() + b"\n"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_one(self, reader) -> Tuple[int, Dict[str, Any]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return 400, {"error": "empty request"}
        parts = request_line.split()
        if len(parts) != 3:
            return 400, {"error": f"malformed request line: {request_line!r}"}
        method, path, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "malformed Content-Length header"}
        if content_length > _MAX_BODY_BYTES:
            return 400, {"error": "request body too large"}
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return self._route(method, path, body)

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/v1/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            jobs = self.queue.jobs()
            by_status: Dict[str, int] = {}
            for job in jobs:
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return 200, {
                "ok": True,
                "jobs": by_status,
                "workers": len(self.worker_addrs),
            }
        if path == "/v1/jobs":
            if method != "POST":
                return 405, {"error": "submit jobs with POST /v1/jobs"}
            return self._submit(body)
        if path.startswith("/v1/jobs/"):
            tail = path[len("/v1/jobs/"):]
            job_id, _, sub = tail.partition("/")
            job = self.queue.get(job_id)
            if job is None:
                return 404, {"error": f"no such job: {job_id!r}"}
            if sub == "" and method == "GET":
                return 200, job.describe()
            if sub == "result" and method == "GET":
                if job.status == "done":
                    return 200, job.result or {}
                if job.status == "failed":
                    return 500, {"error": job.error or "job failed"}
                return 409, {
                    "error": f"job {job_id} is {job.status}, not done"
                }
            return 404, {"error": f"unknown job endpoint: {path!r}"}
        return 404, {"error": f"unknown path: {path!r}"}

    def _submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"malformed JSON body: {exc}"}
        try:
            # Validate the whole spec at submit time — a typo must fail
            # the POST, not the job minutes later.
            from ..jobs import check_job, job_config

            spec = JobSpec.from_json(doc)
            job_config(spec.kind, spec.config)
            check_job(spec.kind, spec.system, spec.options)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        job = self.queue.submit(spec)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "service.jobs_submitted", kind=spec.kind
            ).inc()
        return 202, {"id": job.id, "status": job.status}


def serve(
    state_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    worker_addrs: Sequence[Tuple[str, int]] = (),
) -> int:
    """Blocking CLI entry point for ``repro-dft serve``."""
    import sys

    server = JobServer(
        state_dir, host=host, port=port, worker_addrs=worker_addrs
    )

    async def _main() -> None:
        bound_host, bound_port = await server.start()
        print(f"serving on {bound_host}:{bound_port}", flush=True)
        print(
            f"state dir: {server.queue.state_dir} "
            f"({len(server.worker_addrs)} remote worker(s))",
            file=sys.stderr,
        )
        await server.wait_closed()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("server stopped", file=sys.stderr)
    return 0
