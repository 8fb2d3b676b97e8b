"""Serial-vs-parallel equivalence of the dynamic stage.

The acceptance bar for the task backends is *byte-identical* reports:
same exercised pairs, same summary text, same testcase order, for every
paper system.  Each check runs on both task backends — a 2-process pool
and an in-process worker fleet with one dead address — against the
serial executor.  The window-lifter and buck-boost checks run on suite
subsets (including a dynamic-TDF testcase) to keep the suite fast; the
sensor check covers a full pipeline run.
"""

import pytest

from repro.analysis import analyze_cluster
from repro.core import DftConfig, format_summary, run_dft
from repro.exec import ProcessExecutor, SerialExecutor, TaskExecutor, run_task
from repro.exec.refs import resolve_ref
from repro.service import RemoteExecutor
from repro.testing import TestSuite

SENSOR = ("repro.systems.sensor:SenseTop", "repro.systems.sensor:paper_testcases")
WINDOW_LIFTER = (
    "repro.systems.window_lifter:WindowLifterTop",
    "repro.systems.campaigns:window_lifter_all_testcases",
)
BUCK_BOOST = (
    "repro.systems.buck_boost:BuckBoostTop",
    "repro.systems.campaigns:buck_boost_all_testcases",
)


def _subset_suite(suite_ref, names):
    by_name = {tc.name: tc for tc in resolve_ref(suite_ref)()}
    return TestSuite("subset", [by_name[name] for name in names])


def _backends(factory_ref, suite_ref, fleet_addrs, workers=2):
    """The task backends under test: a process pool and the fleet."""
    return {
        "process": ProcessExecutor(factory_ref, suite_ref, workers),
        "fleet": RemoteExecutor(fleet_addrs, factory_ref, suite_ref, timeout=120),
    }


def _run_both(factory_ref, suite_ref, suite, fleet_addrs, workers=2):
    """The serial result and each task backend's, by backend name."""
    factory = resolve_ref(factory_ref)
    static = analyze_cluster(factory())
    serial = SerialExecutor().run_suite(factory, static, suite)
    fanned = {
        name: executor.run_suite(factory, static, suite)
        for name, executor in _backends(
            factory_ref, suite_ref, fleet_addrs, workers
        ).items()
    }
    return serial, fanned


class TestSensorEquivalence:
    def test_full_pipeline_identical(self, fleet_addrs):
        factory = resolve_ref(SENSOR[0])
        suite = TestSuite("sensor", resolve_ref(SENSOR[1])())
        serial = run_dft(factory, suite, DftConfig(executor=SerialExecutor()))
        for executor in _backends(*SENSOR, fleet_addrs).values():
            parallel = run_dft(factory, suite, DftConfig(executor=executor))
            assert (
                serial.dynamic.exercised_keys()
                == parallel.dynamic.exercised_keys()
            )
            assert format_summary(serial.coverage) == format_summary(
                parallel.coverage
            )
            assert list(parallel.dynamic.per_testcase) == [
                tc.name for tc in suite
            ]

    def test_worker_count_does_not_matter(self):
        factory = resolve_ref(SENSOR[0])
        suite = TestSuite("sensor", resolve_ref(SENSOR[1])())
        summaries = set()
        for workers in (1, 3):
            result = run_dft(
                factory, suite,
                DftConfig(executor=ProcessExecutor(*SENSOR, workers=workers)),
            )
            summaries.add(format_summary(result.coverage))
        assert len(summaries) == 1


class TestWindowLifterEquivalence:
    def test_subset_with_dynamic_tdf_testcase(self, fleet_addrs):
        # wl_obst_fine_zone exercises the dynamic-TDF timestep flip.
        suite = _subset_suite(
            WINDOW_LIFTER[1], ["wl_close_short", "wl_idle", "wl_obst_fine_zone"]
        )
        serial, fanned = _run_both(*WINDOW_LIFTER, suite, fleet_addrs)
        for parallel in fanned.values():
            for name in suite.names():
                assert (
                    serial.per_testcase[name].pairs
                    == parallel.per_testcase[name].pairs
                )
            assert serial.use_without_def() == parallel.use_without_def()


class TestBuckBoostEquivalence:
    def test_subset_identical(self, fleet_addrs):
        suite = _subset_suite(BUCK_BOOST[1], ["bb_buck_0v9", "bb_boost_4v2"])
        serial, fanned = _run_both(*BUCK_BOOST, suite, fleet_addrs)
        for parallel in fanned.values():
            assert serial.exercised_keys() == parallel.exercised_keys()
            assert list(parallel.per_testcase) == suite.names()


class TestExecutorMechanics:
    def test_shards_round_robin(self):
        executor = ProcessExecutor(*SENSOR, workers=2)
        assert executor._shards(["a", "b", "c", "d", "e"]) == [
            ("a", "c", "e"),
            ("b", "d"),
        ]

    def test_more_workers_than_testcases(self, fleet_addrs):
        suite = _subset_suite(BUCK_BOOST[1], ["bb_buck_0v9"])
        serial, fanned = _run_both(*BUCK_BOOST, suite, fleet_addrs, workers=8)
        for parallel in fanned.values():
            assert serial.exercised_keys() == parallel.exercised_keys()

    def test_unknown_testcase_rejected(self):
        from repro.testing import TestCase
        from repro.tdf import ms

        factory = resolve_ref(SENSOR[0])
        static = analyze_cluster(factory())
        rogue = TestSuite("rogue", [TestCase("not_in_ref", ms(1), lambda c: None)])
        with pytest.raises(LookupError):
            ProcessExecutor(*SENSOR, workers=2).run_suite(factory, static, rogue)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ProcessExecutor(*SENSOR, workers=0)
        with pytest.raises(ValueError):
            ProcessExecutor("not-a-ref", SENSOR[1], workers=2)

    def test_empty_suite(self):
        factory = resolve_ref(SENSOR[0])
        static = analyze_cluster(factory())
        result = ProcessExecutor(*SENSOR, workers=2).run_suite(
            factory, static, TestSuite("empty")
        )
        assert result.per_testcase == {}


class _RecordingExecutor(TaskExecutor):
    """Runs its tasks in-process through ``run_task`` and records them."""

    workers = 2

    def __init__(self, *refs):
        super().__init__(*refs)
        self.tasks = []  # shared with every for_suite() copy

    def map_tasks(self, tasks, tel):
        self.tasks.extend(tasks)
        return [run_task(task) for task in tasks]


class TestMakeExecutorRouting:
    """Every fan-out takes its backend from ``DftConfig.make_executor``."""

    def _generate(self, recorder, candidates_per_round):
        from repro.generation import generate_suite

        base = TestSuite("base", resolve_ref(SENSOR[1])()[:2])
        return generate_suite(
            resolve_ref(SENSOR[0]), base, "sensor",
            DftConfig(seed=0, budget_simulations=6, executor=recorder),
            factory_ref=SENSOR[0], suite_ref=SENSOR[1],
            candidates_per_round=candidates_per_round,
        )

    def test_suite_batch_and_mutant_tasks_reach_an_explicit_executor(self):
        from repro.generation.generate import DECODE_REF
        from repro.mutation import run_mutation

        recorder = _RecordingExecutor(*SENSOR)
        result = self._generate(recorder, candidates_per_round=3)
        run_mutation(*SENSOR, DftConfig(seed=0, executor=recorder), max_mutants=3)
        kinds = {(task["kind"], task["suite_ref"]) for task in recorder.tasks}
        assert kinds == {
            ("suite", SENSOR[1]), ("suite", DECODE_REF), ("mutants", SENSOR[1])
        }
        batches = [t for t in recorder.tasks if t["suite_ref"] == DECODE_REF]
        assert sum(len(t["names"]) for t in batches) == result.simulations
        assert all(t["suite_args"][0] == "sensor" for t in batches)

    def test_one_item_batches_run_in_process(self):
        from repro.generation.generate import DECODE_REF
        from repro.mutation import run_mutation

        recorder = _RecordingExecutor(*SENSOR)
        result = self._generate(recorder, candidates_per_round=1)
        run_mutation(*SENSOR, DftConfig(seed=0, executor=recorder), max_mutants=1)
        assert result.simulations > 0
        assert [t["suite_ref"] for t in recorder.tasks] == [SENSOR[1]] * 2
        assert all(t["kind"] == "suite" for t in recorder.tasks)
        assert DECODE_REF not in {t["suite_ref"] for t in recorder.tasks}
