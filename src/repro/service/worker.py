"""The shard-execution worker daemon.

A worker is the remote half of the
:class:`~repro.exec.base.DynamicExecutor` contract: it listens on a
TCP port, accepts ``run_shard`` requests (see
:mod:`repro.service.protocol`) and executes each shard with the
ordinary serial :class:`~repro.instrument.runner.DynamicAnalyzer` on
clusters and suites rebuilt from importable references — exactly what
:mod:`repro.exec.process` workers do in-process, stretched across a
host boundary.

Two properties make the fleet scale:

* **Content-addressed memoization.**  Every shard request carries the
  static fingerprint of the design; the worker keeps one process-level
  :class:`~repro.exec.cache.DynamicResultCache` keyed by
  ``(fingerprint, testcase name)``, so a re-dispatched or repeated
  shard answers from memory without re-simulating — and without any
  traces ever crossing the wire.
* **Serialized execution.**  Shards run on a single executor thread
  (simulation is CPU-bound; a worker process is the unit of
  parallelism), so concurrent dispatches queue instead of thrashing.

``repro-dft worker`` runs :func:`serve_worker`; tests embed
:class:`WorkerServer` in a background thread via
:meth:`WorkerServer.start_in_thread`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..exec.cache import DynamicResultCache
from ..exec.refs import resolve_ref
from ..obs import Telemetry, get_telemetry, telemetry_session
from .protocol import (
    ROLE,
    ProtocolError,
    encode_match,
    read_message,
    write_message,
)


class _ShardStatic:
    """The slice of the static result the dynamic matcher needs —
    the remote twin of :class:`repro.exec.process._WorkerStatic`."""

    def __init__(self, model_start_lines: Dict[str, int]) -> None:
        self.model_start_lines = model_start_lines


def execute_shard(
    job: Dict[str, Any], cache: Optional[DynamicResultCache] = None
) -> Dict[str, Any]:
    """Run one shard job and return the JSON-ready response body.

    ``job`` fields (the ``run_shard`` request's ``job`` object):

    ``factory_ref`` / ``factory_args``
        Importable cluster-factory reference (+ positional args for
        parameterised factories, e.g. the seeded random cluster).
    ``suite_ref`` / ``suite_args``
        Importable suite-builder reference; every name in ``names``
        must be rebuildable from it.
    ``names``
        The testcase names of this shard, in shard order.
    ``model_start_lines``
        ``{model: def-line}`` placeholder map from the parent's static
        analysis.
    ``fingerprint``
        Content-address of the design (static fingerprint); the memo
        key prefix for the worker-local result cache.
    ``warn`` / ``engine`` / ``record_telemetry``
        The usual execution knobs (see
        :meth:`repro.exec.base.DynamicExecutor.run_suite`).
    """
    from ..instrument.runner import DynamicAnalyzer

    t0 = time.perf_counter()
    names: List[str] = list(job.get("names") or [])
    factory_ref = job["factory_ref"]
    factory_args = tuple(job.get("factory_args") or ())
    suite_ref = job["suite_ref"]
    suite_args = tuple(job.get("suite_args") or ())
    fingerprint = job.get("fingerprint")
    record_telemetry = bool(job.get("record_telemetry"))

    factory_obj = resolve_ref(factory_ref)
    factory = (
        (lambda: factory_obj(*factory_args)) if factory_args else factory_obj
    )
    testcases = {tc.name: tc for tc in resolve_ref(suite_ref)(*suite_args)}
    missing = [name for name in names if name not in testcases]
    if missing:
        raise LookupError(
            f"suite reference {suite_ref!r} does not provide "
            f"testcase(s) {missing}"
        )

    cached: Dict[str, Any] = {}
    if cache is not None:
        for name in names:
            hit = cache.get(fingerprint, name)
            if hit is not None:
                cached[name] = hit
    pending = [name for name in names if name not in cached]

    static = _ShardStatic(dict(job.get("model_start_lines") or {}))
    results: Dict[str, Any] = dict(cached)
    payload: List[dict] = []
    if pending:
        # A private session per shard, like process-pool workers: the
        # kernel hooks key off the globally active telemetry.
        with telemetry_session(
            Telemetry() if record_telemetry else None
        ) as tel:
            analyzer = DynamicAnalyzer(
                factory,
                static,
                warn=bool(job.get("warn")),
                telemetry=tel if record_telemetry else None,
                engine=job.get("engine") or "auto",
            )
            for name in pending:
                results[name] = analyzer.run_testcase(testcases[name])
            if record_telemetry:
                payload = tel.metrics.raw_records()
        if cache is not None:
            for name in pending:
                cache.put(fingerprint, name, results[name])

    return {
        "ok": True,
        "results": [[name, encode_match(results[name])] for name in names],
        "telemetry": payload,
        "wall": time.perf_counter() - t0,
        "cache_hits": len(cached),
        "executed": len(pending),
    }


class WorkerServer:
    """Asyncio NDJSON server executing shard jobs one at a time."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port  # 0 = ephemeral; resolved after start()
        self.cache = DynamicResultCache()
        self.shards_run = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-dft-shard"
        )
        self._shutdown = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def wait_closed(self) -> None:
        """Serve until :meth:`close` (or a ``shutdown`` op)."""
        await self._shutdown.wait()
        await self._close_now()

    async def _close_now(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False)

    def close(self) -> None:
        """Request shutdown (thread-safe via the owning loop)."""
        self._shutdown.set()

    # -- request handling ----------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    write_message(writer, {"ok": False, "error": str(exc)})
                    await writer.drain()
                    break
                if message is None:
                    break
                response = await self._respond(message)
                write_message(writer, response)
                await writer.drain()
                if message.get("op") == "shutdown":
                    self._shutdown.set()
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _respond(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        if op == "ping":
            return {
                "ok": True,
                "role": ROLE,
                "shards_run": self.shards_run,
                "cache_entries": len(self.cache),
            }
        if op == "shutdown":
            return {"ok": True, "role": ROLE}
        if op == "run_shard":
            job = message.get("job")
            if not isinstance(job, dict):
                return {"ok": False, "error": "run_shard needs a 'job' object"}
            loop = asyncio.get_running_loop()
            try:
                response = await loop.run_in_executor(
                    self._pool, execute_shard, job, self.cache
                )
            except Exception as exc:
                return {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            self.shards_run += 1
            return response
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- embedding (tests, in-process fleets) --------------------------------

    def start_in_thread(self) -> Tuple[str, int]:
        """Run the server on a daemon thread; returns the bound address.

        The embedding twin of :func:`serve_worker`: the caller gets a
        live worker address immediately and stops it with
        :meth:`close` (the loop notices via the shutdown event).
        """
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
            raise RuntimeError("worker server failed to start")
        self._thread = thread
        return addr[0]


def serve_worker(host: str = "127.0.0.1", port: int = 0) -> int:
    """Blocking CLI entry point: serve shards until interrupted.

    Prints ``worker listening on HOST:PORT`` (flushed) once bound so
    scripts starting workers on ephemeral ports can scrape the
    address.
    """
    import sys

    worker = WorkerServer(host, port)

    async def _main() -> None:
        bound_host, bound_port = await worker.start()
        print(f"worker listening on {bound_host}:{bound_port}", flush=True)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge("service.worker_port").set(bound_port)
        await worker.wait_closed()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("worker stopped", file=sys.stderr)
    return 0
