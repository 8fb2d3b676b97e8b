"""Process-pool backend: shard tasks run in local worker processes.

:class:`ProcessExecutor` is a :class:`~repro.exec.task.TaskExecutor`
whose :meth:`~ProcessExecutor.map_tasks` is one
``pool.map(run_task, tasks)`` over a fresh
:class:`concurrent.futures.ProcessPoolExecutor` with one process per
task.  Each process rebuilds the factory and the suite from importable
references (:mod:`repro.exec.refs`), so nothing but the task dict and
its JSON-ready reply crosses the process boundary.

Determinism: results merge in suite (or mutant-index) order, never in
completion order, and each testcase's result is independent of every
other testcase — so ``--workers 4`` produces byte-identical coverage
reports and kill matrices to ``--workers 1``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor as _Pool
from typing import Any, Dict, List, Sequence

from ..obs import Telemetry
from .task import TaskExecutor, run_task


class ProcessExecutor(TaskExecutor):
    """Fan tasks out across a :class:`concurrent.futures` process pool."""

    def __init__(
        self,
        factory_ref: str,
        suite_ref: str,
        workers: int,
        suite_args: Sequence = (),
        factory_args: Sequence = (),
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(factory_ref, suite_ref, suite_args, factory_args)
        self.workers = workers

    def map_tasks(
        self, tasks: Sequence[Dict[str, Any]], tel: Telemetry
    ) -> List[Dict[str, Any]]:
        with _Pool(max_workers=len(tasks)) as pool:
            return list(pool.map(run_task, tasks))
