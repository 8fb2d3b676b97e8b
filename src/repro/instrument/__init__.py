"""Dynamic analysis: instrumentation, probes, event matching, runner."""

from .instrumenter import (
    compile_processing_ast,
    install_processing_ast,
    instrument_processing,
    restore_processing,
)
from .matching import MatchResult, match_events
from .parallel_print import ParallelPrint, tap_signal
from .probes import ProbeRuntime, UseWithoutDefWarning
from .runner import ClusterFactory, DynamicAnalyzer, DynamicResult

__all__ = [
    "ClusterFactory",
    "DynamicAnalyzer",
    "DynamicResult",
    "MatchResult",
    "ParallelPrint",
    "ProbeRuntime",
    "UseWithoutDefWarning",
    "compile_processing_ast",
    "install_processing_ast",
    "instrument_processing",
    "match_events",
    "restore_processing",
    "tap_signal",
]
