"""The durable job queue behind the HTTP job server.

A *job* is one unit of DFT work — one of the job kinds of
:mod:`repro.jobs` (``run``, ``campaign``, ``mutate``, ``generate``),
the same workloads the CLI runs.

Jobs are **journaled** as newline-delimited JSON to ``jobs.jsonl``
inside the service's state directory (by default next to the
run-history ledger, so one directory holds everything durable about
past and pending work).  The journal is an event log — ``submitted``,
``started``, ``done``, ``failed`` — and :meth:`JobQueue.replay` folds
it back into queue state on restart: finished jobs keep their results,
and jobs that were ``running`` when the server died return to
``queued`` (job execution is deterministic and memoized, so re-running
is safe and usually cheap).

Progress (testcases executed, iterations finished — read off the obs
telemetry mid-run) lives only in memory; the journal records
transitions, not heartbeats.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..jobs import JOB_KINDS
from ..obs.store.history import append_line

#: Lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

_JOURNAL_NAME = "jobs.jsonl"


@dataclass(frozen=True)
class JobSpec:
    """What to run: kind + system name + serialized config.

    ``system`` names a system of :data:`repro.systems.registry.SYSTEMS`
    (or ``random`` for ``mutate``); ``config`` is a
    :meth:`repro.core.config.DftConfig.to_json` dict; ``options`` are
    the kind's :data:`repro.jobs.JOB_OPTIONS`.
    """

    kind: str
    system: str
    config: Dict[str, Any] = field(default_factory=dict)
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if not self.system or not isinstance(self.system, str):
            raise ValueError("job spec needs a non-empty 'system' name")
        if not isinstance(self.config, dict):
            raise ValueError("job spec 'config' must be an object")
        if not isinstance(self.options, dict):
            raise ValueError("job spec 'options' must be an object")

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "system": self.system,
            "config": self.config,
            "options": self.options,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "JobSpec":
        if not isinstance(data, dict):
            raise ValueError(
                f"job spec must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {"kind", "system", "config", "options"}
        if unknown:
            raise ValueError(
                f"unknown job spec field(s): {', '.join(sorted(unknown))}"
            )
        return cls(
            kind=data.get("kind", ""),
            system=data.get("system", ""),
            config=data.get("config") or {},
            options=data.get("options") or {},
        )


@dataclass
class Job:
    """One submitted job and its lifecycle state."""

    id: str
    spec: JobSpec
    status: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Free-form progress snapshot (in-memory only, not journaled).
    progress: Dict[str, Any] = field(default_factory=dict)
    #: The report envelope, once ``done``.
    result: Optional[Dict[str, Any]] = None
    #: One-line failure message, once ``failed``.
    error: Optional[str] = None

    def describe(self) -> Dict[str, Any]:
        """The ``GET /v1/jobs/{id}`` status document."""
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "system": self.spec.system,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": dict(self.progress),
            "error": self.error,
        }


class JobQueue:
    """FIFO job queue with a JSONL journal for crash-safe restarts."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        self.journal_path = os.path.join(state_dir, _JOURNAL_NAME)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._counter = 0
        os.makedirs(state_dir, exist_ok=True)
        self.replay()

    # -- journal ------------------------------------------------------------

    def _append(self, event: Dict[str, Any]) -> None:
        append_line(
            self.journal_path, json.dumps(event, separators=(",", ":")), fsync=True
        )

    def replay(self) -> None:
        """Rebuild queue state from the journal (idempotent).

        A job that was ``running`` at crash time has a ``started``
        event but no terminal one — it comes back ``queued`` so the
        restarted server re-runs it.
        """
        with self._lock:
            self._jobs.clear()
            self._order.clear()
            self._counter = 0
            if not os.path.exists(self.journal_path):
                return
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue  # torn tail write from a crash
                    self._apply(event)
            # Interrupted jobs return to the queue.
            for job in self._jobs.values():
                if job.status == "running":
                    job.status = "queued"
                    job.started_at = None

    def _apply(self, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "submitted":
            try:
                spec = JobSpec.from_json(event.get("spec") or {})
            except ValueError:
                return
            job_id = event.get("id")
            if not job_id:
                return
            job = Job(
                id=job_id, spec=spec,
                submitted_at=float(event.get("at", 0.0)),
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
            seq = _sequence_of(job_id)
            if seq is not None:
                self._counter = max(self._counter, seq)
            return
        job = self._jobs.get(event.get("id", ""))
        if job is None:
            return
        at = float(event.get("at", 0.0))
        if kind == "started":
            job.status = "running"
            job.started_at = at
        elif kind == "done":
            job.status = "done"
            job.finished_at = at
            job.result = event.get("result")
        elif kind == "failed":
            job.status = "failed"
            job.finished_at = at
            job.error = event.get("error")

    # -- queue operations ----------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        with self._lock:
            self._counter += 1
            job_id = f"job-{self._counter:06d}"
            job = Job(id=job_id, spec=spec, submitted_at=time.time())
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._append(
                {
                    "event": "submitted",
                    "id": job_id,
                    "at": job.submitted_at,
                    "spec": spec.to_json(),
                }
            )
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """All jobs, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def next_queued(self) -> Optional[Job]:
        """The oldest queued job (does not change its state)."""
        with self._lock:
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.status == "queued":
                    return job
            return None

    def mark_running(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.status = "running"
            job.started_at = time.time()
            self._append(
                {"event": "started", "id": job_id, "at": job.started_at}
            )

    def mark_progress(self, job_id: str, progress: Dict[str, Any]) -> None:
        """In-memory progress update (heartbeats are not journaled)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                job.progress.update(progress)

    def mark_done(self, job_id: str, result: Dict[str, Any]) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.status = "done"
            job.finished_at = time.time()
            job.result = result
            self._append(
                {
                    "event": "done",
                    "id": job_id,
                    "at": job.finished_at,
                    "result": result,
                }
            )

    def mark_failed(self, job_id: str, error: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.status = "failed"
            job.finished_at = time.time()
            job.error = error
            self._append(
                {
                    "event": "failed",
                    "id": job_id,
                    "at": job.finished_at,
                    "error": error,
                }
            )


def _sequence_of(job_id: str) -> Optional[int]:
    prefix, sep, digits = job_id.partition("-")
    if prefix == "job" and sep and digits.isdigit():
        return int(digits)
    return None
