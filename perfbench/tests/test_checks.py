"""A wrong output, a raised error or a service that does not start is a failed op."""

import dataclasses
import json

from child import run_ops
from reference import REFERENCE_CONFIG
from run import count_failed
from service_load import job_problems
from workloads import Mutation, Pipeline, sha256


class SensorPipeline(Pipeline):
    """The pipeline workload cut down to the (fast) sensor system."""

    def setup(self):
        super().setup()
        self.cases = [case for case in self.cases if case[0] == "sensor"]

    def shape_problems(self, output):
        return []


class SensorMutation(Mutation):
    """The mutation workload on the sensor system, six mutants."""

    def op(self):
        return self._run_mutation(
            "repro.systems.sensor:SenseTop", "repro.systems.sensor:paper_testcases",
            self.config, max_mutants=6,
        )


def reference_of(cls):
    from repro import DftConfig

    workload = cls(DftConfig(**REFERENCE_CONFIG))
    workload.setup()
    return {"digests": workload.digests(workload.op())}


def failed_ops(workload, reference, ops=2):
    records, _ = run_ops(workload, reference, 0.0, ops)
    return count_failed(records)


def test_correct_coverage_summary_passes():
    workload = SensorPipeline()
    workload.setup()
    assert failed_ops(workload, reference_of(SensorPipeline)) == 0


def test_corrupted_coverage_summary_is_a_failed_op():
    from repro import TestSuite

    workload = SensorPipeline()
    workload.setup()
    # Drop the last testcase: the summary loses associations it covers.
    name, factory, suite = workload.cases[0]
    workload.cases = [(name, factory, TestSuite(name, list(suite)[:-1]))]
    assert failed_ops(workload, reference_of(SensorPipeline)) == 2


def test_corrupted_kill_matrix_is_a_failed_op():
    reference = reference_of(SensorMutation)
    workload = SensorMutation()
    workload.setup()
    assert failed_ops(workload, reference, ops=1) == 0

    run_mutation = workload._run_mutation

    def forget_one_kill(*args, **kwargs):
        run = run_mutation(*args, **kwargs)
        index = next(i for i, o in enumerate(run.outcomes) if o.status == "killed")
        run.outcomes[index] = dataclasses.replace(
            run.outcomes[index], killed_by=run.outcomes[index].killed_by[1:]
        )
        return run

    workload._run_mutation = forget_one_kill
    assert failed_ops(workload, reference, ops=1) == 1


def test_raising_op_is_a_failed_op():
    workload = SensorPipeline()
    workload.setup()
    workload.cases = [("sensor", None, workload.cases[0][2])]
    records, _ = run_ops(workload, reference_of(SensorPipeline), 0.0, 1)
    assert count_failed(records) == 1
    assert "op raised" in records[0]["problems"][0]


def test_service_envelope_coverage_is_checked():
    coverage = {"totals": {"static": 3, "exercised": 2}}
    reference = {"digests": {"service.campaign_coverage": sha256(
        json.dumps(coverage, sort_keys=True).encode()
    )}}
    envelope = {"payload": {"kind": "campaign", "coverage": coverage}}
    assert job_problems(envelope, reference) == []
    envelope["payload"]["coverage"] = {"totals": {"static": 3, "exercised": 1}}
    assert job_problems(envelope, reference)


def test_service_that_does_not_start_is_failed_ops(tmp_path, monkeypatch):
    import math
    import time

    from metrics import result_line
    from service_load import MIN_ROUNDS, measure

    # No repro sources under tmp_path: `python -m repro worker` exits at once.
    monkeypatch.delenv("PYTHONPATH", raising=False)
    summary = measure(str(tmp_path), 0.0, False, {"digests": {}}, time.monotonic() + 60)
    assert summary["attempted"] == summary["failed"] == MIN_ROUNDS
    assert all(math.isfinite(v) for v in summary["metrics"].values())
    doc = json.loads(result_line(False, summary["attempted"], summary["failed"],
                                 summary["metrics"], False))
    assert doc["correct"] is False and doc["failed"] == MIN_ROUNDS
