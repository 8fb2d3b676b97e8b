"""Compiled block-execution engine for the TDF kernel.

The interpreter (:meth:`~repro.tdf.simulator.Simulator.run_period`)
re-derives everything about a firing every time it fires.  This package
compiles the static schedule once into a flattened *program*
(:mod:`~repro.tdf.engine.compiler`), executes it in multi-period windows
(:mod:`~repro.tdf.engine.executor`), and gives library modules a
block-level API (:class:`~repro.tdf.engine.blocks.FiringBlock`) so a
whole window of samples moves through ``processing_block()`` in one
call — results stay bit-identical to the interpreter, including the
probe's def-use pairing.
"""

from .blocks import FiringBlock
from .compiler import CompiledProgram, WINDOW_PERIODS, compile_program
from .executor import ENGINES, BlockEngine, resolve_engine

__all__ = [
    "BlockEngine",
    "CompiledProgram",
    "ENGINES",
    "FiringBlock",
    "WINDOW_PERIODS",
    "compile_program",
    "resolve_engine",
]
