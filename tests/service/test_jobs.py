"""Durable job queue: journal, lifecycle, crash replay."""

import json

import pytest

from repro.service.jobs import JobQueue, JobSpec


def _spec(kind="run", system="sensor"):
    return JobSpec(kind=kind, system=system, config={"seed": 1})


class TestJobSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec(kind="compile", system="sensor")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec field"):
            JobSpec.from_json({"kind": "run", "system": "s", "extra": 1})

    def test_round_trip(self):
        spec = _spec("mutate")
        assert JobSpec.from_json(spec.to_json()) == spec


class TestJobQueue:
    def test_submit_and_lifecycle(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(_spec())
        assert job.status == "queued"
        assert queue.next_queued().id == job.id
        queue.mark_running(job.id)
        assert queue.get(job.id).status == "running"
        assert queue.next_queued() is None
        queue.mark_done(job.id, {"schema": "x", "payload": {}})
        done = queue.get(job.id)
        assert done.status == "done"
        assert done.result["schema"] == "x"

    def test_ids_are_sequential(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        ids = [queue.submit(_spec()).id for _ in range(3)]
        assert ids == ["job-000001", "job-000002", "job-000003"]

    def test_progress_not_journaled(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(_spec())
        queue.mark_progress(job.id, {"stage": "dynamic"})
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "jobs.jsonl").read_text().splitlines()
        ]
        assert events == ["submitted"]
        assert queue.get(job.id).progress == {"stage": "dynamic"}

    def test_submit_after_torn_journal_tail_survives_replay(self, tmp_path):
        (tmp_path / "jobs.jsonl").write_text('{"event":"subm')  # crash mid-append
        job = JobQueue(str(tmp_path)).submit(_spec())
        restarted = JobQueue(str(tmp_path))
        assert [j.id for j in restarted.jobs()] == [job.id]

    def test_replay_resumes_queued_jobs(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queued = queue.submit(_spec())
        running = queue.submit(_spec("campaign", "buck_boost"))
        finished = queue.submit(_spec("mutate"))
        queue.mark_running(running.id)
        queue.mark_running(finished.id)
        queue.mark_done(finished.id, {"schema": "done", "payload": {}})

        # A fresh queue over the same directory = a restarted server.
        revived = JobQueue(str(tmp_path))
        assert revived.get(queued.id).status == "queued"
        # The job that was mid-run at crash time re-queues.
        assert revived.get(running.id).status == "queued"
        assert revived.get(finished.id).status == "done"
        assert revived.get(finished.id).result["schema"] == "done"
        # Draining resumes in submission order.
        assert revived.next_queued().id == queued.id
        # New submissions continue the id sequence past the replayed ones.
        assert revived.submit(_spec()).id == "job-000004"

    def test_replay_tolerates_torn_tail(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(_spec())
        with open(tmp_path / "jobs.jsonl", "a") as handle:
            handle.write('{"event": "done", "id": "job-0')  # torn write
        revived = JobQueue(str(tmp_path))
        assert revived.get(job.id).status == "queued"

    def test_failed_jobs_keep_error(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(_spec())
        queue.mark_running(job.id)
        queue.mark_failed(job.id, "boom")
        revived = JobQueue(str(tmp_path))
        assert revived.get(job.id).status == "failed"
        assert revived.get(job.id).error == "boom"
