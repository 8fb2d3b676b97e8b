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
            ("seed", "x"), ("budget_seconds", -1), ("engine", "jit"),
            ("warn", "no"), ("static_cache", 0), ("warm_start", "yes"),
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

    @pytest.mark.parametrize("spec, needle", [
        ({"kind": "campaign", "system": "sensor"}, "no campaign"),
        ({"kind": "mutate", "system": "buck_boost",
          "options": {"max_mutant": 2}}, "max_mutant"),
        ({"kind": "run", "system": "sensor",
          "options": {"targets": "frontier"}}, "targets"),
        ({"kind": "mutate", "system": "buck_boost",
          "options": {"targets": "some"}}, "some"),
        ({"kind": "generate", "system": "sensor",
          "options": {"strategy": "annealing"}}, "annealing"),
        ({"kind": "mutate", "system": "random",
          "options": {"operators": ["aor", "bogus"]}}, "bogus"),
        ({"kind": "generate", "system": "riscv_platform"}, "riscv_platform"),
    ], ids=["campaign-without-campaign", "unknown-option",
            "option-of-another-kind", "bad-targets", "unknown-strategy",
            "unknown-operator", "generate-without-space"])
    def test_unrunnable_spec_is_400_and_the_server_keeps_serving(
        self, server, spec, needle
    ):
        """A spec the job layer cannot run is refused at POST with a
        one-line error; nothing is queued and the server stays up."""
        srv, addr = server
        with pytest.raises(ServiceError) as err:
            submit_job(addr, spec)
        assert err.value.status == 400
        assert needle in str(err.value)
        assert "\n" not in str(err.value)
        assert healthz(addr)["ok"] is True
        assert srv.queue.jobs() == []

    def test_submit_command_reports_a_400_in_one_line(self, server, capsys):
        from repro.cli import main

        _, (host, port) = server
        assert main(
            ["submit", "--server", f"{host}:{port}", "campaign", "sensor"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-dft: error: job rejected: HTTP 400:")
        assert "no campaign defined for system 'sensor'" in err
        assert err.count("\n") == 1


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

    def test_job_raising_system_exit_fails_and_the_server_keeps_serving(
        self, server
    ):
        _, addr = server
        job_id = submit_job(addr, {
            "kind": "mutate", "system": "sensor",
            "options": {"suite_ref": "helpers:exiting_suite"},
        })
        with pytest.raises(ServiceError, match="SystemExit: suite builder"):
            wait_for_job(addr, job_id, timeout=60)
        assert healthz(addr)["ok"] is True

    def test_static_cache_switch_holds_for_one_job_only(self, server):
        from repro.analysis import get_default_cache

        _, addr = server
        for config, enabled in (({"static_cache": False}, False), ({}, True)):
            job_id = submit_job(
                addr, {"kind": "run", "system": "sensor", "config": config}
            )
            wait_for_job(addr, job_id, timeout=300)
            assert get_default_cache().enabled is enabled

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
        """Refused at POST: the job never exists, so it cannot fail."""
        srv, addr = server
        with pytest.raises(ServiceError, match="warp_core") as err:
            submit_job(addr, {"kind": "run", "system": "warp_core"})
        assert err.value.status == 400
        assert "available: buck_boost, riscv_platform" in str(err.value)
        assert srv.queue.jobs() == []


def _job_payload(addr, spec, timeout=600):
    job_id = submit_job(addr, spec)
    wait_for_job(addr, job_id, timeout=timeout)
    return job_id, job_result(addr, job_id)["payload"]


def _cli_json(capsys, argv):
    from repro.cli import main

    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _strip(doc, *keys):
    return {key: value for key, value in doc.items() if key not in keys}


#: (kind, system, config, options, the same job's CLI flags)
PARITY_CASES = {
    "run": ("run", "sensor", {}, {}, []),
    "campaign": ("campaign", "buck_boost", {}, {}, []),
    "mutate-all": (
        "mutate", "buck_boost", {"seed": 3},
        {"max_mutants": 2, "targets": "all"},
        ["--seed", "3", "--max-mutants", "2", "--targets", "all"],
    ),
    "mutate-frontier": (
        "mutate", "buck_boost", {"seed": 3},
        {"max_mutants": 2, "targets": "frontier"},
        ["--seed", "3", "--max-mutants", "2", "--targets", "frontier"],
    ),
    "mutate-random": (
        "mutate", "random", {"seed": 1},
        {"cluster_seed": 4, "max_mutants": 3},
        ["--seed", "1", "--cluster-seed", "4", "--max-mutants", "3"],
    ),
    "generate": (
        "generate", "sensor", {"seed": 3, "budget_simulations": 8},
        {"targets": "frontier"},
        ["--seed", "3", "--budget-simulations", "8", "--targets", "frontier"],
    ),
}


class TestFrontEndParity:
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_job_equals_cli(
        self, server, capsys, tmp_path, case
    ):
        """One job layer: a job's payload is what the same CLI command
        records (``run``, ``campaign``: its ledger record, apart from
        the stamp and the timings) or prints (``mutate``, ``generate``:
        its ``--json``, apart from the wall-clock throughput), and the
        envelope carries the system's static fingerprint."""
        from repro.analysis.cache import fingerprint_cluster
        from repro.cli import main
        from repro.exec.task import resolve_factory
        from repro.jobs import job_refs

        _, addr = server
        kind, system, config, options, flags = PARITY_CASES[case]
        service_ledger = str(tmp_path / "service-ledger")
        job_id = submit_job(addr, {
            "kind": kind, "system": system, "options": options,
            "config": {**config, "history_dir": service_ledger},
        })
        wait_for_job(addr, job_id, timeout=600)
        envelope = job_result(addr, job_id)
        payload = envelope["payload"]
        refs = job_refs(system, options)
        assert envelope["fingerprint"] == fingerprint_cluster(
            resolve_factory(refs.factory_ref, refs.factory_args)()
        )

        if kind in ("run", "campaign"):
            cli_ledger = str(tmp_path / "cli-ledger")
            assert main([kind, system, "--history-dir", cli_ledger] + flags) == 0
            capsys.readouterr()
            (cli_record,) = RunHistory(cli_ledger).records()
            stamp = ("run_id", "recorded_at", "timings")
            assert _strip(payload, *stamp) == _strip(cli_record, *stamp)
            # The job appends its own payload to the ledger.
            (job_record,) = RunHistory(service_ledger).records()
            assert _strip(payload, *stamp) == _strip(job_record, *stamp)
            assert set(payload["timings"]) == set(job_record["timings"])
            assert payload["fingerprint"] == envelope["fingerprint"]
            return

        assert main([kind, system, "--json", "--no-history"] + flags) == 0
        local = json.loads(capsys.readouterr().out)
        if kind == "generate":
            payload.pop("throughput")
            local.pop("throughput")
        assert payload == local
        if system == "buck_boost":
            # Criteria are scored on the kill matrix's own suite.
            assert len(payload["testcases"]) == 24
            assert payload["targets_mode"] == options["targets"]


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


    def test_journaled_unrunnable_job_fails_and_the_server_keeps_serving(
        self, tmp_path
    ):
        """A journaled job the job layer refuses (one queued before specs
        were checked at POST) fails on restart instead of killing the
        server, and the next job still runs."""
        state = str(tmp_path / "state")
        queue = JobServer(state).queue
        bad = queue.submit(JobSpec(kind="campaign", system="sensor"))
        good = queue.submit(JobSpec(kind="run", system="sensor"))

        server = JobServer(state)
        addr = server.start_in_thread()
        try:
            with pytest.raises(ServiceError, match="no campaign defined"):
                wait_for_job(addr, bad.id, timeout=60)
            assert wait_for_job(addr, good.id, timeout=300)["status"] == "done"
            assert healthz(addr)["ok"] is True
        finally:
            server.close()


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
