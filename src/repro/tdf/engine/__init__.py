"""Compiled block-execution engine for the TDF kernel.

The interpreter (:meth:`~repro.tdf.simulator.Simulator.run_period`)
re-derives everything about a firing every time it fires.  This package
compiles the static schedule once into a flattened *program*
(:mod:`~repro.tdf.engine.compiler`), executes it in multi-period windows
(:mod:`~repro.tdf.engine.executor`), and gives library modules a
block-level API (:mod:`~repro.tdf.engine.blocks`) so a whole window of
samples moves through ``processing_block()`` in one call — results stay
bit-identical to the interpreter, including the probe's def-use pairing.
"""

from .blocks import (
    FiringBlock,
    add_blocks,
    consume_block,
    mul_blocks,
    offset_block,
    produce_block,
    rollback_block,
    scale_block,
    sub_blocks,
)
from .compiler import CompiledProgram, WINDOW_PERIODS, compile_program
from .executor import ENGINES, BlockEngine, resolve_engine

__all__ = [
    "BlockEngine",
    "CompiledProgram",
    "ENGINES",
    "FiringBlock",
    "WINDOW_PERIODS",
    "add_blocks",
    "compile_program",
    "consume_block",
    "mul_blocks",
    "offset_block",
    "produce_block",
    "resolve_engine",
    "rollback_block",
    "scale_block",
    "sub_blocks",
]
