"""HTTP job server: endpoints, validation, restart recovery."""

import json

import pytest

from helpers import worker_fleet
from repro.core import DftConfig, run_dft
from repro.obs.store import RunHistory
from repro.obs.store.history import coverage_summary
from repro.service import JobServer, JobSpec, WorkerServer
from repro.service.client import (
    ServiceError,
    _request,
    healthz,
    job_result,
    job_status,
    submit_job,
    wait_for_job,
)
from repro.testing.testcase import TestSuite


def _sensor_suite():
    from repro.systems.sensor import paper_testcases

    return TestSuite("sensor", paper_testcases())


def _sensor_factory():
    from repro.systems.sensor import SenseTop

    return SenseTop()


@pytest.fixture()
def server(tmp_path):
    srv = JobServer(str(tmp_path / "state"))
    addr = srv.start_in_thread()
    yield srv, addr
    srv.close()


class TestEndpoints:
    def test_healthz(self, server):
        _, addr = server
        doc = healthz(addr)
        assert doc["ok"] is True
        assert doc["workers"] == 0

    def test_unknown_path_404(self, server):
        _, addr = server
        with pytest.raises(ServiceError) as err:
            _request(addr, "GET", "/v2/nope")
        assert err.value.status == 404

    def test_wrong_method_405(self, server):
        _, addr = server
        with pytest.raises(ServiceError) as err:
            _request(addr, "GET", "/v1/jobs")
        assert err.value.status == 405

    def test_unknown_job_404(self, server):
        _, addr = server
        with pytest.raises(ServiceError) as err:
            job_status(addr, "job-999999")
        assert err.value.status == 404


class TestSubmitValidation:
    def test_malformed_json_body_is_400(self, server):
        """Junk bytes get a one-line 400, not a hung or crashed server."""
        import http.client

        _, addr = server
        conn = http.client.HTTPConnection(addr[0], addr[1], timeout=10)
        try:
            conn.request(
                "POST", "/v1/jobs", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "\n" not in doc["error"]
        assert "malformed JSON body" in doc["error"]

    def test_unknown_kind_is_400(self, server):
        _, addr = server
        with pytest.raises(ServiceError) as err:
            submit_job(addr, {"kind": "bogus", "system": "sensor"})
        assert err.value.status == 400
        assert "unknown job kind" in str(err.value)

    def test_unknown_config_field_is_400(self, server):
        _, addr = server
        for field in ("tpyo", "batch_size", "matcher", "probe_store",
                      "reuse_dynamic_results"):
            with pytest.raises(ServiceError) as err:
                submit_job(
                    addr,
                    {"kind": "run", "system": "sensor", "config": {field: 1}},
                )
            assert err.value.status == 400
            assert field in str(err.value)

    def test_ill_typed_config_value_is_400(self, server):
        """Field values are validated at submit time, by DftConfig."""
        _, addr = server
        for field, value in (
            ("workers", "two"), ("workers", 0), ("tolerance", "tiny"),
            ("seed", "x"), ("budget_seconds", -1),
        ):
            with pytest.raises(ServiceError) as err:
                submit_job(
                    addr,
                    {"kind": "run", "system": "sensor", "config": {field: value}},
                )
            assert err.value.status == 400
            assert field in str(err.value)

    def test_unknown_spec_field_is_400(self, server):
        _, addr = server
        with pytest.raises(ServiceError) as err:
            submit_job(addr, {"kind": "run", "system": "sensor", "prio": 9})
        assert err.value.status == 400


class TestJobExecution:
    def test_run_job_matches_local_run(self, server):
        _, addr = server
        job_id = submit_job(
            addr, {"kind": "run", "system": "sensor", "config": {}}
        )
        wait_for_job(addr, job_id, timeout=300)
        envelope = job_result(addr, job_id)
        assert envelope["schema"] == "repro-dft-history/1"
        assert envelope["payload"]["kind"] == "run"
        local = run_dft(_sensor_factory, _sensor_suite(), DftConfig())
        assert json.dumps(
            envelope["payload"]["coverage"], sort_keys=True
        ) == json.dumps(coverage_summary(local.coverage), sort_keys=True)
        assert envelope["fingerprint"] == local.static.fingerprint

    def test_run_and_campaign_payloads_equal_their_ledger_records(
        self, server, tmp_path
    ):
        """A job's payload is the ledger record the same job appends,
        apart from the stamp (run_id, recorded_at) and the timings."""
        _, addr = server
        config = {"history_dir": str(tmp_path / "ledger")}
        payloads = []
        for kind, system in (("run", "sensor"), ("campaign", "buck_boost")):
            job_id = submit_job(
                addr, {"kind": kind, "system": system, "config": config}
            )
            wait_for_job(addr, job_id, timeout=600)
            payloads.append(job_result(addr, job_id)["payload"])
        records = RunHistory(config["history_dir"]).records()
        assert [r["kind"] for r in records] == ["run", "campaign"]

        def strip(doc):
            return {
                key: value for key, value in doc.items()
                if key not in ("run_id", "recorded_at", "timings")
            }

        for payload, record in zip(payloads, records):
            assert strip(payload) == strip(record)
            assert set(payload["timings"]) == set(record["timings"])

    def test_result_before_done_is_409(self, server):
        srv, addr = server
        # Submit against a server whose runner is busy enough that the
        # immediate result read races it; a queued/running job answers
        # 409, not a partial envelope.
        job_id = submit_job(
            addr, {"kind": "run", "system": "sensor", "config": {}}
        )
        status = job_status(addr, job_id)
        if status["status"] in ("queued", "running"):
            with pytest.raises(ServiceError) as err:
                job_result(addr, job_id)
            assert err.value.status == 409
        wait_for_job(addr, job_id, timeout=300)

    def test_unknown_system_fails_job(self, server):
        _, addr = server
        job_id = submit_job(addr, {"kind": "run", "system": "warp_core"})
        with pytest.raises(ServiceError, match="warp_core"):
            wait_for_job(addr, job_id, timeout=60)
        status = job_status(addr, job_id)
        assert status["status"] == "failed"
        with pytest.raises(ServiceError) as err:
            job_result(addr, job_id)
        assert err.value.status == 500


def _job_payload(addr, spec, timeout=600):
    job_id = submit_job(addr, spec)
    wait_for_job(addr, job_id, timeout=timeout)
    return job_id, job_result(addr, job_id)["payload"]


def _cli_json(capsys, argv):
    from repro.cli import main

    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestMutateJob:
    @pytest.mark.parametrize("targets", ["all", "frontier"])
    def test_payload_equals_the_cli_json(self, server, capsys, targets):
        """The job scores its criteria on the kill matrix's own suite
        (24 buck-boost testcases) and honours ``targets``, like the
        ``mutate`` command."""
        _, addr = server
        _, payload = _job_payload(addr, {
            "kind": "mutate", "system": "buck_boost", "config": {"seed": 3},
            "options": {"max_mutants": 2, "targets": targets},
        })
        local = _cli_json(capsys, [
            "mutate", "buck_boost", "--max-mutants", "2", "--seed", "3",
            "--targets", targets, "--json", "--no-history",
        ])
        assert payload == local
        assert len(payload["testcases"]) == 24
        assert payload["targets_mode"] == targets


class TestRestartRecovery:
    def test_queued_jobs_resume_after_restart(self, tmp_path):
        """Journal replay: a job queued at crash time runs on restart."""
        state = str(tmp_path / "state")
        first = JobServer(state)
        # Submit directly to the queue without starting the runner —
        # the job is journaled but never picked up (= crash before run).
        job = first.queue.submit(
            JobSpec(kind="run", system="sensor", config={})
        )
        assert first.queue.get(job.id).status == "queued"

        second = JobServer(state)
        addr = second.start_in_thread()
        try:
            status = wait_for_job(addr, job.id, timeout=300)
            assert status["status"] == "done"
            envelope = job_result(addr, job.id)
            assert envelope["payload"]["kind"] == "run"
        finally:
            second.close()


class TestRemoteFleetJobs:
    def test_campaign_sharded_across_two_workers(self, tmp_path):
        """The acceptance path: a campaign job over HTTP, sharded across
        two workers, byte-identical to the single-process run."""
        workers = [WorkerServer(), WorkerServer()]
        addrs = [worker.start_in_thread() for worker in workers]
        srv = JobServer(str(tmp_path / "state"), worker_addrs=addrs)
        addr = srv.start_in_thread()
        try:
            job_id = submit_job(
                addr, {"kind": "campaign", "system": "buck_boost"}
            )
            wait_for_job(addr, job_id, timeout=600)
            envelope = job_result(addr, job_id)
        finally:
            srv.close()
            for worker in workers:
                worker.close()
        assert envelope["payload"]["kind"] == "campaign"
        assert sum(worker.shards_run for worker in workers) >= 2

        from repro.systems import campaigns

        local = campaigns.buck_boost_campaign(config=DftConfig())
        records = local.run()
        assert json.dumps(
            envelope["payload"]["coverage"], sort_keys=True
        ) == json.dumps(
            coverage_summary(records[-1].coverage), sort_keys=True
        )
        trajectory = envelope["payload"]["campaign"]["trajectory"]
        assert [row["tests"] for row in trajectory] == [
            rec.tests for rec in records
        ]

    def test_mutate_and_generate_jobs_shard_over_the_fleet(self, tmp_path, capsys):
        """Every job kind shards over ``--worker``: a mutate job and a
        generate job through two workers and one dead address match the
        local runs, and the dead address costs only retries."""
        with worker_fleet() as (workers, addrs):
            srv = JobServer(str(tmp_path / "state"), worker_addrs=addrs)
            addr = srv.start_in_thread()
            try:
                mutate_id, mutate = _job_payload(addr, {
                    "kind": "mutate", "system": "buck_boost",
                    "config": {"seed": 1123}, "options": {"max_mutants": 6},
                })
                shards = [worker.shards_run for worker in workers]
                generate_id, generate = _job_payload(addr, {
                    "kind": "generate", "system": "sensor",
                    "config": {"seed": 3, "budget_simulations": 8},
                })
                counters = [
                    job_status(addr, job_id)["progress"]["counters"]
                    for job_id in (mutate_id, generate_id)
                ]
            finally:
                srv.close()
        assert all(count > 0 for count in shards)
        assert all(c.get("service.shard_retries", 0) > 0 for c in counters)

        local_mutate = _cli_json(capsys, [
            "mutate", "buck_boost", "--max-mutants", "6", "--seed", "1123",
            "--json", "--no-history",
        ])
        rows = ("mutants", "criteria", "counts", "mutation_score")
        assert {k: mutate[k] for k in rows} == {k: local_mutate[k] for k in rows}
        assert mutate["workers"] == 3  # the fleet's three addresses

        local_generate = _cli_json(capsys, [
            "generate", "sensor", "--seed", "3", "--budget-simulations", "8",
            "--json", "--no-history",
        ])
        generate.pop("throughput")
        local_generate.pop("throughput")
        assert generate == local_generate
