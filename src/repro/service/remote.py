"""Remote fan-out: the executor backend over a worker fleet.

:class:`RemoteExecutor` is the third
:class:`~repro.exec.base.DynamicExecutor` backend (after serial and
process-pool): it stripes the suite with the same
:func:`~repro.exec.base.round_robin_shards` layout, but dispatches each
shard to a ``repro-dft worker`` daemon over the NDJSON socket protocol
instead of a forked process.

Fault model — workers are expendable:

* a **per-shard socket timeout** doubles as the straggler detector: a
  worker that hangs (or dies mid-shard, closing the socket) surfaces as
  a transport error on that one shard;
* the shard is then **re-dispatched** to the next live worker in
  rotation, with bounded retries and a small deterministic jitter
  (seeded per shard) so a thundering herd of failed shards doesn't
  reconnect in lockstep;
* re-running a shard is safe because shard execution is a pure function
  of the job — and usually *cheap*, because workers memoize results in
  a local :class:`~repro.exec.cache.DynamicResultCache` under the
  content-addressed key (static fingerprint, testcase name).

Determinism: results merge by the suite's testcase order, never by
completion or dispatch order, so a job sharded across N remote workers
is byte-identical to a single-process local run.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..obs import Telemetry, get_telemetry
from ..exec.base import DynamicExecutor, round_robin_shards
from ..exec.refs import resolve_ref
from .protocol import ROLE, ProtocolError, decode_match, request

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid cycles
    from ..analysis.cluster_analysis import StaticAnalysisResult
    from ..instrument.matching import MatchResult
    from ..instrument.runner import ClusterFactory, DynamicResult
    from ..testing.testcase import TestSuite

#: Default per-shard socket timeout (seconds).  Generous: a shard is a
#: batch of whole simulations, not a single request.
DEFAULT_TIMEOUT = 300.0

#: Default number of re-dispatch attempts after the first failure.
DEFAULT_RETRIES = 2


def parse_worker_addr(spec: str) -> Tuple[str, int]:
    """Parse a ``host:port`` (or bare ``port``) worker address."""
    text = spec.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", text
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid worker address {spec!r}: bad port") from None
    if not 0 < port < 65536:
        raise ValueError(f"invalid worker address {spec!r}: port out of range")
    return host, port


class RemoteExecutor(DynamicExecutor):
    """Fan shards out to ``repro-dft worker`` daemons over TCP."""

    def __init__(
        self,
        worker_addrs: Sequence[Tuple[str, int]],
        factory_ref: str,
        suite_ref: str,
        suite_args: Sequence = (),
        factory_args: Sequence = (),
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        seed: int = 0,
    ) -> None:
        if not worker_addrs:
            raise ValueError("RemoteExecutor needs at least one worker address")
        # Fail fast, locally, on unresolvable references: the workers
        # will resolve the same names from the same package.
        resolve_ref(factory_ref)
        resolve_ref(suite_ref)
        self.worker_addrs = [tuple(addr) for addr in worker_addrs]
        self.workers = len(self.worker_addrs)
        self.factory_ref = factory_ref
        self.suite_ref = suite_ref
        self.suite_args = tuple(suite_args)
        self.factory_args = tuple(factory_args)
        self.timeout = timeout
        self.retries = retries
        self.seed = seed

    # -- fleet management ----------------------------------------------------

    def ping_all(self, timeout: float = 5.0) -> List[Dict[str, Any]]:
        """Ping every worker; raises if one is absent or not a worker."""
        replies = []
        for addr in self.worker_addrs:
            reply = request(addr, {"op": "ping"}, timeout=timeout)
            if reply.get("role") != ROLE:
                raise ProtocolError(
                    f"{addr[0]}:{addr[1]} is not a repro-dft worker "
                    f"(role={reply.get('role')!r})"
                )
            replies.append(reply)
        return replies

    def shutdown_all(self, timeout: float = 5.0) -> None:
        """Ask every worker process to exit (best-effort)."""
        for addr in self.worker_addrs:
            try:
                request(addr, {"op": "shutdown"}, timeout=timeout)
            except (OSError, ProtocolError):
                pass

    # -- dispatch ------------------------------------------------------------

    def _shard_job(
        self,
        names: Tuple[str, ...],
        static: "StaticAnalysisResult",
        warn: bool,
        record_telemetry: bool,
        engine: Optional[str],
    ) -> Dict[str, Any]:
        return {
            "factory_ref": self.factory_ref,
            "factory_args": list(self.factory_args),
            "suite_ref": self.suite_ref,
            "suite_args": list(self.suite_args),
            "names": list(names),
            "model_start_lines": dict(static.model_start_lines),
            "fingerprint": getattr(static, "fingerprint", None),
            "warn": warn,
            "record_telemetry": record_telemetry,
            "engine": engine if engine is not None else "auto",
        }

    def _dispatch_shard(
        self, index: int, job: Dict[str, Any], tel: Telemetry
    ) -> Dict[str, Any]:
        """Run one shard with bounded retry over the worker rotation.

        Attempt 0 goes to the shard's home worker (``index`` mod fleet
        size); each failure rotates to the next address.  The jitter
        before a retry is deterministic per (seed, shard, attempt) so
        reruns of a job behave identically.
        """
        rng = random.Random(f"{self.seed}|{index}")
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            addr = self.worker_addrs[(index + attempt) % len(self.worker_addrs)]
            if attempt and self.timeout:
                time.sleep(min(0.25, self.timeout / 100.0) * rng.random())
            try:
                response = request(
                    addr, {"op": "run_shard", "job": job}, timeout=self.timeout
                )
            except (OSError, ProtocolError) as exc:
                last_error = exc
                if tel.enabled:
                    tel.metrics.counter(
                        "service.shard_retries", shard=index
                    ).inc()
                continue
            if tel.enabled and attempt:
                tel.metrics.counter("service.shards_redispatched").inc()
            return response
        raise RuntimeError(
            f"shard {index} ({len(job['names'])} testcase(s)) failed on "
            f"{self.retries + 1} worker(s); last error: {last_error}"
        )

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

        provided = {
            tc.name for tc in resolve_ref(self.suite_ref)(*self.suite_args)
        }
        unknown = [name for name in names if name not in provided]
        if unknown:
            raise LookupError(
                f"suite reference {self.suite_ref!r} does not provide "
                f"testcase(s) {unknown}; remote execution needs every "
                f"testcase to be rebuildable by name in the workers"
            )

        shards = round_robin_shards(names, self.workers)
        jobs = [
            self._shard_job(shard, static, warn, tel.enabled, engine)
            for shard in shards
        ]
        per_name: Dict[str, "MatchResult"] = {}
        with tel.span(
            "dynamic.remote", workers=self.workers, testcases=len(names)
        ):
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                outputs = list(
                    pool.map(
                        lambda pair: self._dispatch_shard(pair[0], pair[1], tel),
                        enumerate(jobs),
                    )
                )
            for index, response in enumerate(outputs):
                for name, encoded in response.get("results", []):
                    per_name[name] = decode_match(encoded)
                if tel.enabled:
                    tel.metrics.merge_raw(response.get("telemetry") or [])
                    tel.metrics.histogram("service.shard_seconds").observe(
                        float(response.get("wall", 0.0))
                    )
                    tel.metrics.counter(
                        "service.shards_dispatched", shard=index
                    ).inc()
                    hits = int(response.get("cache_hits", 0))
                    if hits:
                        tel.metrics.counter("service.remote_cache_hits").inc(hits)
        missing = [name for name in names if name not in per_name]
        if missing:
            raise RuntimeError(
                f"remote workers returned no result for testcase(s) {missing}"
            )
        for name in names:
            result.per_testcase[name] = per_name[name]
        return result
