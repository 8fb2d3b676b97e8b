"""Mutation testing of the DFT coverage criteria.

Seeds faults into the TDF systems at two levels (``processing()`` ASTs
and the cluster netlist), executes every mutant differentially against
reference traces, and joins the resulting kill matrix with the
per-criterion coverage data — an empirical validation that suites
satisfying stronger data-flow criteria detect more faults.

See :mod:`repro.mutation.operators` (fault models),
:mod:`repro.mutation.executor` (differential execution, in-process or
as shard tasks on a process pool or a worker fleet) and
:mod:`repro.mutation.report` (criterion join, JSON/CSV/text reports).
"""

from .executor import (
    DEFAULT_BUDGET_SECONDS,
    KillSite,
    MutantOutcome,
    MutationRun,
    compute_baselines,
    run_mutant,
    run_mutation,
    traces_diverge,
)
from .operators import (
    ALL_OPERATORS,
    MutantNotApplicable,
    MutantSpec,
    MutationOperator,
    MutationPoint,
    apply_mutant,
    generate_mutants,
)
from .report import (
    SCHEMA,
    build_report,
    criteria_report,
    criterion_subsuites,
    format_report,
    kill_matrix_bytes,
    write_csv,
)

__all__ = [
    "ALL_OPERATORS",
    "DEFAULT_BUDGET_SECONDS",
    "KillSite",
    "MutantNotApplicable",
    "MutantOutcome",
    "MutantSpec",
    "MutationOperator",
    "MutationPoint",
    "MutationRun",
    "SCHEMA",
    "apply_mutant",
    "build_report",
    "compute_baselines",
    "criteria_report",
    "criterion_subsuites",
    "format_report",
    "generate_mutants",
    "kill_matrix_bytes",
    "run_mutant",
    "run_mutation",
    "traces_diverge",
    "write_csv",
]
