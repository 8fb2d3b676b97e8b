"""RemoteExecutor over live in-thread workers.

The acceptance properties of the service tentpole: a suite sharded
across >= 2 remote workers merges byte-identically to a local serial
run, a worker dying mid-job is survived via re-dispatch, and repeat
shards answer from the workers' content-addressed memo caches.
"""

import json

import pytest
from helpers import hang_up_address

from repro.core import DftConfig, run_dft
from repro.obs.store.history import coverage_summary
from repro.service import RemoteExecutor, WorkerServer, parse_worker_addr, request
from repro.service.protocol import ProtocolError
from repro.testing.testcase import TestSuite

FACTORY_REF = "repro.systems.sensor:SenseTop"
SUITE_REF = "repro.systems.sensor:paper_testcases"


def _sensor_suite():
    from repro.systems.sensor import paper_testcases

    return TestSuite("sensor", paper_testcases())


def _sensor_factory():
    from repro.systems.sensor import SenseTop

    return SenseTop()


@pytest.fixture(scope="module")
def fleet():
    workers = [WorkerServer(), WorkerServer()]
    addrs = [worker.start_in_thread() for worker in workers]
    yield workers, addrs
    for worker in workers:
        worker.close()


@pytest.fixture(scope="module")
def local_summary():
    result = run_dft(_sensor_factory, _sensor_suite(), DftConfig())
    return json.dumps(coverage_summary(result.coverage), sort_keys=True)


class TestParseWorkerAddr:
    def test_host_port(self):
        assert parse_worker_addr("10.0.0.1:9000") == ("10.0.0.1", 9000)

    def test_bare_port_defaults_to_loopback(self):
        assert parse_worker_addr("9000") == ("127.0.0.1", 9000)

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError, match="bad port"):
            parse_worker_addr("host:http")

    def test_out_of_range_port_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_worker_addr("host:70000")


class TestWorkerProtocol:
    def test_ping_identifies_role(self, fleet):
        _, addrs = fleet
        reply = request(addrs[0], {"op": "ping"}, timeout=5)
        assert reply["role"] == "repro-dft-worker"

    def test_unknown_op_is_error(self, fleet):
        _, addrs = fleet
        with pytest.raises(ProtocolError, match="unknown op"):
            request(addrs[0], {"op": "frobnicate"}, timeout=5)

    def test_bad_shard_job_is_error(self, fleet):
        _, addrs = fleet
        with pytest.raises(ProtocolError, match="job"):
            request(addrs[0], {"op": "run_shard"}, timeout=5)


class TestEmbeddedWorkers:
    def test_workers_in_one_process_take_turns(self, monkeypatch):
        """Two workers embedded in one process never run tasks at the
        same time: CPython 3.11's AST compiler, which mutation drives,
        is not thread-safe."""
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        import repro.service.worker as worker_module
        from helpers import worker_fleet

        guard = threading.Lock()
        running = []
        peaks = []

        def slow_task(task, cache=None):
            with guard:
                running.append(task)
                peaks.append(len(running))
            time.sleep(0.05)
            with guard:
                running.remove(task)
            return {"results": [], "telemetry": [], "cache_hits": 0}

        monkeypatch.setattr(worker_module, "run_task", slow_task)
        with worker_fleet() as (_, addrs):
            live = [addrs[0], addrs[2]]
            with ThreadPoolExecutor(4) as pool:
                replies = list(pool.map(
                    lambda i: request(
                        live[i % 2], {"op": "run_shard", "job": {"n": i}},
                        timeout=30,
                    ),
                    range(4),
                ))
        assert [reply["ok"] for reply in replies] == [True] * 4
        assert peaks == [1, 1, 1, 1]


class TestRemoteExecution:
    def test_sharded_run_is_byte_identical(self, fleet, local_summary):
        _, addrs = fleet
        executor = RemoteExecutor(addrs, FACTORY_REF, SUITE_REF, timeout=120)
        assert executor.workers == 2
        remote = run_dft(
            _sensor_factory, _sensor_suite(), DftConfig(executor=executor)
        )
        assert (
            json.dumps(coverage_summary(remote.coverage), sort_keys=True)
            == local_summary
        )

    def test_repeat_shards_hit_worker_caches(self, fleet, local_summary):
        workers, addrs = fleet
        executor = RemoteExecutor(addrs, FACTORY_REF, SUITE_REF, timeout=120)
        run_dft(_sensor_factory, _sensor_suite(), DftConfig(executor=executor))
        assert sum(len(worker.cache) for worker in workers) >= len(
            _sensor_suite()
        )
        before = [worker.cache.hits for worker in workers]
        remote = run_dft(
            _sensor_factory, _sensor_suite(), DftConfig(executor=executor)
        )
        assert sum(w.cache.hits for w in workers) > sum(before)
        assert (
            json.dumps(coverage_summary(remote.coverage), sort_keys=True)
            == local_summary
        )

    def test_worker_death_redispatches(self, fleet, local_summary):
        """A dead fleet member costs retries, not results."""
        _, addrs = fleet
        # A listener that accepts and immediately hangs up: the shard
        # dispatched to it fails mid-flight, exactly like a worker
        # process dying between connect and response.
        with hang_up_address() as dead_addr:
            executor = RemoteExecutor(
                [dead_addr, addrs[1]], FACTORY_REF, SUITE_REF,
                timeout=120, retries=2,
            )
            remote = run_dft(
                _sensor_factory, _sensor_suite(), DftConfig(executor=executor)
            )
        assert (
            json.dumps(coverage_summary(remote.coverage), sort_keys=True)
            == local_summary
        )

    def test_all_workers_dead_raises(self):
        executor = RemoteExecutor(
            [("127.0.0.1", 1)], FACTORY_REF, SUITE_REF,
            timeout=0.5, retries=1,
        )
        from repro.analysis import analyze_cluster

        static = analyze_cluster(_sensor_factory())
        with pytest.raises(RuntimeError, match="failed on"):
            executor.run_suite(_sensor_factory, static, _sensor_suite())

    def test_unknown_testcase_fails_fast(self, fleet):
        _, addrs = fleet
        executor = RemoteExecutor(addrs, FACTORY_REF, SUITE_REF, timeout=30)
        from repro.analysis import analyze_cluster
        from repro.tdf.time import ms
        from repro.testing.testcase import TestCase

        static = analyze_cluster(_sensor_factory())
        alien = TestSuite(
            "alien", [TestCase("not-in-suite", ms(1), lambda c: None)]
        )
        with pytest.raises(LookupError, match="not-in-suite"):
            executor.run_suite(_sensor_factory, static, alien)
