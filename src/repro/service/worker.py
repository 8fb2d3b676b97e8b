"""The shard-task worker daemon.

A worker is the remote end of :class:`~repro.service.remote.RemoteExecutor`:
it listens on a TCP port, accepts ``run_shard`` requests (see
:mod:`repro.service.protocol`) and runs each shard task with
:func:`repro.exec.task.run_task` — the same runner a process-pool
backend calls, so a ``"suite"`` task and a ``"mutants"`` task replies
with the same bytes here as in a local pool process.

Two properties make the fleet scale:

* **Content-addressed memoization.**  Every suite task carries the
  static fingerprint of the design; the worker keeps one process-level
  :class:`~repro.exec.cache.DynamicResultCache` keyed by
  ``(fingerprint, testcase name)``, so a re-dispatched or repeated
  task answers from memory without re-simulating — and without any
  traces ever crossing the wire.
* **Serialized execution.**  Tasks run on a single executor thread
  (simulation is CPU-bound; a worker process is the unit of
  parallelism), so concurrent dispatches queue instead of thrashing.
  Workers embedded in one process also take turns: CPython 3.11's AST
  compiler is not thread-safe (concurrent ``ast.parse`` calls can
  raise ``SystemError``), and mutation parses and compiles ASTs.

``repro-dft worker`` runs :func:`serve_worker`; tests embed
:class:`WorkerServer` in a background thread via
:meth:`WorkerServer.start_in_thread`.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..exec.cache import DynamicResultCache
from ..exec.task import run_task
from .protocol import ROLE, ProtocolError, read_message, write_message


#: One task at a time per process, across every embedded worker.
_TASK_LOCK = threading.Lock()


def _run_task_locked(task: Dict[str, Any], cache: DynamicResultCache) -> Dict[str, Any]:
    with _TASK_LOCK:
        return run_task(task, cache)


class WorkerServer:
    """Asyncio NDJSON server running shard tasks one at a time."""

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
                reply = await loop.run_in_executor(
                    self._pool, _run_task_locked, job, self.cache
                )
            except Exception as exc:
                return {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            self.shards_run += 1
            return {"ok": True, **reply}
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
    """Blocking CLI entry point: serve shard tasks until interrupted.

    Prints ``worker listening on HOST:PORT`` (flushed) once bound so
    scripts starting workers on ephemeral ports can scrape the
    address.
    """
    import sys

    worker = WorkerServer(host, port)

    async def _main() -> None:
        bound_host, bound_port = await worker.start()
        print(f"worker listening on {bound_host}:{bound_port}", flush=True)
        await worker.wait_closed()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("worker stopped", file=sys.stderr)
    return 0
