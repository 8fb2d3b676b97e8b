"""The telemetry vocabulary: spans and counters, and nothing else.

A traced campaign job and a small fanned-out mutation run together
record only counter metrics, every counter the performance benchmark
reads is among them, and the serialised metric records stay small.
"""

import json

import pytest

from repro.core import DftConfig
from repro.jobs import job_config, run_job
from repro.mutation import run_mutation
from repro.obs import telemetry_session
from repro.systems.registry import system_entry

#: Counters ``perfbench/layers.py`` turns into per-layer metrics.
BENCHMARK_COUNTERS = (
    "tdf.periods",
    "tdf.engine_block_firings",
    "tdf.engine_compiled_firings",
    "tdf.engine_fallbacks",
    "tdf.schedule_cache_hits",
    "tdf.schedule_cache_misses",
    "analysis.cache_hits",
    "analysis.cache_misses",
    "exec.result_cache_hits",
    "exec.result_cache_misses",
)


@pytest.fixture(scope="module")
def records():
    with telemetry_session() as tel:
        run_job("campaign", "buck_boost", job_config("campaign", {"workers": 1}))
        # window_lifter's dynamic TDF exercises the schedule cache; two
        # workers send the mutant tasks' counters back through fold-back.
        entry = system_entry("window_lifter")
        run_mutation(
            entry.factory_ref, entry.base_suite_ref,
            DftConfig(seed=0, workers=2), max_mutants=2,
        )
    return tel.metrics.records()


def test_every_metric_is_a_counter(records):
    assert records
    assert {r["kind"] for r in records} == {"counter"}
    for record in records:
        assert set(record) == {"type", "kind", "name", "labels", "value"}


def test_benchmark_counters_are_present(records):
    names = {r["name"] for r in records}
    assert set(BENCHMARK_COUNTERS) <= names
    assert "mutation.worker_mutants" in names


def test_records_serialise_small(records):
    assert len(json.dumps(records)) < 4096
