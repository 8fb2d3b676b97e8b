"""The paper's primary contribution: TDF-specific data-flow testing.

Association model and classification (paper §IV-B), coverage criteria
(§IV-B2), coverage computation combining static and dynamic results
(Fig. 3), reporting, and the iterative testsuite-refinement workflow
(§VI).
"""

from .associations import (
    AssocClass,
    Association,
    Definition,
    ExercisedPair,
    SourceLocation,
    VarScope,
)
from .config import DftConfig
from .coverage import ClassCoverage, CoverageResult
from .database import coverage_to_dict, universe_fingerprint
from .criteria import Criterion, CriterionStatus, detailed_status, evaluate_all, satisfied
from .pipeline import PipelineResult, run_dft
from .report import (
    format_iteration_table,
    format_matrix,
    format_summary,
    make_envelope,
)
from .workflow import GenerationCampaign, IterationRecord, IterativeCampaign

__all__ = [
    "AssocClass",
    "Association",
    "ClassCoverage",
    "CoverageResult",
    "Criterion",
    "CriterionStatus",
    "Definition",
    "DftConfig",
    "GenerationCampaign",
    "ExercisedPair",
    "IterationRecord",
    "IterativeCampaign",
    "PipelineResult",
    "SourceLocation",
    "VarScope",
    "coverage_to_dict",
    "detailed_status",
    "evaluate_all",
    "format_iteration_table",
    "format_matrix",
    "format_summary",
    "make_envelope",
    "run_dft",
    "satisfied",
    "universe_fingerprint",
]
