"""DFT as a service: async job server + sharded remote workers.

The CLI's one-process, one-host campaigns become a long-running
service in three pieces:

* :mod:`repro.service.worker` — a daemon running shard tasks
  (:mod:`repro.exec.task`) over the newline-delimited-JSON protocol of
  :mod:`repro.service.protocol` on a plain TCP socket.  Workers rebuild
  clusters and suites from importable references (never from shipped
  traces) and answer repeat shards from a local per-process
  :class:`~repro.exec.cache.DynamicResultCache` keyed by the
  content-addressed memo key (static fingerprint + testcase name).
* :mod:`repro.service.remote` — :class:`RemoteExecutor`, the
  :class:`~repro.exec.task.TaskExecutor` backend that fans shard tasks
  out across a worker fleet with per-shard timeouts, bounded retry
  with deterministic jitter and straggler re-dispatch, then merges
  deterministically by suite order — a sharded job is byte-identical
  to a local run.
* :mod:`repro.service.server` — the asyncio HTTP/JSON job server
  (``POST /v1/jobs``, ``GET /v1/jobs/{id}``,
  ``GET /v1/jobs/{id}/result``, ``GET /v1/healthz``) over a durable
  :class:`~repro.service.jobs.JobQueue` journaled next to the
  run-history ledger; queued jobs survive a restart via journal
  replay.

``repro-dft worker`` / ``repro-dft serve`` / ``repro-dft submit`` are
the CLI entry points.
"""

from .client import (
    ServiceError,
    healthz,
    job_result,
    job_status,
    submit_job,
    wait_for_job,
)
from .jobs import JOB_KINDS, Job, JobQueue, JobSpec
from .protocol import (
    decode_match,
    encode_match,
    read_message,
    request,
    write_message,
)
from .remote import RemoteExecutor, parse_worker_addr
from .server import JobServer, serve
from .worker import WorkerServer, serve_worker

__all__ = [
    "JOB_KINDS",
    "Job",
    "JobQueue",
    "JobServer",
    "JobSpec",
    "RemoteExecutor",
    "ServiceError",
    "WorkerServer",
    "decode_match",
    "encode_match",
    "healthz",
    "job_result",
    "job_status",
    "parse_worker_addr",
    "read_message",
    "request",
    "serve",
    "serve_worker",
    "submit_job",
    "wait_for_job",
    "write_message",
]
