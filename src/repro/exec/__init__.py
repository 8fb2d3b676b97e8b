"""Execution backends for the dynamic-analysis stage and mutation.

* :class:`SerialExecutor` — in-process, one testcase after the other;
* :mod:`repro.exec.task` — the shard task every fan-out ships, its one
  runner :func:`run_task`, and :class:`TaskExecutor`, whose
  ``run_suite`` is shared by the task-running backends:
  :class:`ProcessExecutor` (a local process pool) and
  :class:`repro.service.RemoteExecutor` (a worker fleet);
* :class:`DynamicResultCache` — per-testcase result memoization that
  collapses the repeated cumulative suites of iterative campaigns;
* :mod:`repro.exec.refs` — the ``"module:attr"`` reference scheme that
  lets tasks name factories and suites instead of shipping them.
"""

from .base import DynamicExecutor, SerialExecutor, round_robin_shards
from .cache import DynamicResultCache
from .process import ProcessExecutor
from .refs import ref_to, resolve_ref
from .task import TaskExecutor, run_task

__all__ = [
    "DynamicExecutor",
    "DynamicResultCache",
    "ProcessExecutor",
    "SerialExecutor",
    "TaskExecutor",
    "ref_to",
    "resolve_ref",
    "round_robin_shards",
    "run_task",
]
