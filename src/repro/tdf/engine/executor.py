"""Windowed executor for compiled firing programs.

:class:`BlockEngine` replaces the interpreter's per-firing loop with
per-*window* execution: hoisted (pre) modules produce up to
:data:`~repro.tdf.engine.compiler.WINDOW_PERIODS` periods of samples in
one ``processing_block`` call, the flattened core ops replay the
remaining PASS per period, and deferred (post) sinks drain the completed
periods in one call at window end.

Dynamic TDF stays fully supported, in one window loop: after every
period the executor calls ``change_attributes()`` on the modules that
override it (the compiler keeps those in the per-period core), then
scans the modules whose ``processing()`` actually ran (only those can
file attribute requests) and, on a request, truncates the window —
excess pre-produced samples are rolled back token-for-token before the
schedule swap, so the data in flight is exactly what the interpreter
would have left behind.

Engine selection is a three-valued knob resolved by
:func:`resolve_engine`: ``"interp"`` (the per-firing interpreter),
``"block"`` (this executor) and ``"auto"`` (currently ``block`` — the
compiler itself falls back per module, so auto never loses
correctness, only the constant factor).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import SimulationError
from ..time import ScaTime
from .compiler import (
    CompiledProgram,
    _WindowRollback,
    compile_program,
    program_signature,
)

ENGINES = ("auto", "interp", "block")


def resolve_engine(engine: Optional[str]) -> str:
    """Map an engine request onto a concrete engine name."""
    if engine is None or engine == "auto":
        return "block"
    if engine in ("interp", "block"):
        return engine
    raise ValueError(
        f"unknown engine {engine!r}: expected one of {', '.join(ENGINES)}"
    )


class BlockEngine:
    """Executes compiled programs for one :class:`Simulator`."""

    def __init__(self, simulator) -> None:
        self.sim = simulator

    # -- program cache -----------------------------------------------------

    def program_for(self, schedule) -> CompiledProgram:
        """The compiled program of ``schedule``, compiling on first use.

        Programs are cached on the schedule object itself (schedules are
        memoized by the simulator's schedule cache, so a dynamic-TDF
        oscillation recompiles nothing).  A signature mismatch — processing
        registrations changed since compilation — forces a recompile.
        """
        program = getattr(schedule, "_engine_program", None)
        if program is not None and program.signature == program_signature(self.sim):
            return program
        program = compile_program(self.sim, schedule)
        schedule._engine_program = program
        return program

    # -- execution ---------------------------------------------------------

    def run(self, stop: Optional[ScaTime], max_periods: Optional[int],
            until=None) -> None:
        """The block-engine counterpart of ``Simulator._loop``.

        ``until`` is polled once per committed window, after the GC
        sweep; the run ends at the first window where it returns true.
        """
        sim = self.sim
        cluster = sim.cluster
        stop_fs = stop.femtoseconds if stop is not None else None
        executed = 0
        # Signature validation once per schedule per run: processing
        # registrations cannot change while the kernel itself is running.
        validated: Dict[int, CompiledProgram] = {}
        while True:
            if max_periods is not None and executed >= max_periods:
                break
            now_fs = sim.now.femtoseconds
            if stop_fs is not None and now_fs >= stop_fs:
                break
            schedule = sim.schedule
            period_fs = schedule.period_fs
            if period_fs <= 0:
                raise SimulationError(
                    f"cluster {cluster.name!r} has a zero-length period; "
                    f"check timestep assignments"
                )
            program = validated.get(id(schedule))
            if program is None:
                program = self.program_for(schedule)
                validated[id(schedule)] = program
            remaining = (
                None if max_periods is None else max_periods - executed
            )
            if stop_fs is not None:
                by_time = -(-(stop_fs - now_fs) // period_fs)
                remaining = (
                    by_time if remaining is None else min(remaining, by_time)
                )
            n = (
                program.window
                if remaining is None
                else min(program.window, remaining)
            )
            executed += self._run_window(program, now_fs, n)
            # Deferred GC: block reads skip per-call collection so a
            # rollback can restore cursors; sweep once the window is
            # committed and every cursor is final.
            for signal in cluster.signals:
                signal._collect_garbage()
            if until is not None and until():
                break

    def _run_window(self, program: CompiledProgram, base_fs: int, n: int) -> int:
        """Up to ``n`` periods in one window; returns periods completed."""
        sim = self.sim
        rollback = _WindowRollback() if n > 1 else None
        for op in program.pre_ops:
            op.fire(n, base_fs, rollback)
        period_fs = program.period_fs
        core_ops = program.core_ops
        changers = program.changers
        watch = program.dynamic_watch
        completed = 0
        p_base = base_fs
        pending = False
        while completed < n:
            for op in core_ops:
                op(p_base)
            completed += 1
            p_base += period_fs
            for change in changers:
                change()
            for module in watch:
                if module._pending_timestep is not None or module._pending_rates:
                    pending = True
                    break
            if pending:
                break
        for op in program.post_ops:
            op.fire(completed, base_fs, None)
        if rollback is not None:
            rollback.apply(n, completed)
        sim.now = ScaTime.from_femtoseconds(base_fs + completed * period_fs)
        sim.periods_run += completed
        if pending:
            # Same swap protocol as the interpreter's dynamic-TDF path.
            for module in sim.cluster.modules:
                if module.has_pending_attribute_requests:
                    module.consume_attribute_requests()
            sim._swap_schedule()
        return completed
