"""Remote fan-out: the task backend over a worker fleet.

:class:`RemoteExecutor` is the second
:class:`~repro.exec.task.TaskExecutor` (after the process pool): it
shares the pool's ``run_suite`` — the same
:func:`~repro.exec.base.round_robin_shards` layout and the same shard
tasks — but its :meth:`~RemoteExecutor.map_tasks` sends each task to a
``repro-dft worker`` daemon over the NDJSON socket protocol instead of
a forked process.  Mutation submits its ``"mutants"`` tasks the same
way.

Fault model — workers are expendable:

* a **per-shard socket timeout** doubles as the straggler detector: a
  worker that hangs (or dies mid-shard, closing the socket) surfaces as
  a transport error on that one shard;
* the shard is then **re-dispatched** to the next live worker in
  rotation, with bounded retries and a small deterministic jitter
  (seeded per shard) so a thundering herd of failed shards doesn't
  reconnect in lockstep;
* re-running a shard is safe because a task's reply is a pure function
  of the task — and usually *cheap*, because workers memoize suite
  results in a local :class:`~repro.exec.cache.DynamicResultCache`
  under the content-addressed key (static fingerprint, testcase name).

Determinism: results merge by the suite's testcase order (or mutant
index), never by completion or dispatch order, so a job sharded across
N remote workers is byte-identical to a single-process local run.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exec.task import TaskExecutor
from ..obs import Telemetry
from .protocol import ProtocolError, request

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


class RemoteExecutor(TaskExecutor):
    """Fan shard tasks out to ``repro-dft worker`` daemons over TCP."""

    span = "dynamic.remote"

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
        super().__init__(factory_ref, suite_ref, suite_args, factory_args)
        self.worker_addrs = [tuple(addr) for addr in worker_addrs]
        self.workers = len(self.worker_addrs)
        self.timeout = timeout
        self.retries = retries
        self.seed = seed

    # -- dispatch ------------------------------------------------------------

    def _dispatch(
        self, index: int, task: Dict[str, Any], tel: Telemetry
    ) -> Dict[str, Any]:
        """Run one task with bounded retry over the worker rotation.

        Attempt 0 goes to the task's home worker (``index`` mod fleet
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
                reply = request(
                    addr, {"op": "run_shard", "job": task}, timeout=self.timeout
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
            return reply
        raise RuntimeError(
            f"shard {index} ({task['kind']} task) failed on "
            f"{self.retries + 1} worker(s); last error: {last_error}"
        )

    def map_tasks(
        self, tasks: Sequence[Dict[str, Any]], tel: Telemetry
    ) -> List[Dict[str, Any]]:
        with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
            replies = list(
                pool.map(
                    lambda pair: self._dispatch(pair[0], pair[1], tel),
                    enumerate(tasks),
                )
            )
        if tel.enabled:
            for index, reply in enumerate(replies):
                tel.metrics.counter("service.shards_dispatched", shard=index).inc()
                if reply["cache_hits"]:
                    tel.metrics.counter("service.remote_cache_hits").inc(
                        reply["cache_hits"]
                    )
        return replies
