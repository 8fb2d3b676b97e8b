"""Schedule compiler: flatten an elaborated :class:`Schedule` into a
firing *program* the block engine executes without per-firing dict
lookups or ScaTime arithmetic.

SDF theory guarantees the periodic schedule is fully static, so every
decision the interpreter re-makes per firing — which ports, what
timestep offset, whether the fast flush applies — is made once here
and baked into closures.  A compiled program has four parts:

* **pre ops** — *windowable* block-capable modules whose entire input
  cone is also hoisted: fired once per execution window, producing
  ``window × repetitions`` samples in a single ``processing_block``
  call.  The probe records nothing for them: a testbench or library
  writer's definition is a static site (see
  :mod:`repro.instrument.probes`).
* **core ops** — everything in between, in PASS order: per-firing
  specialised SISO ops (gain/delay/buffer), per-period coalesced block
  ops and generic interpreted firings (instrumented or user-defined
  modules — per-sample fallback).  A generic firing costs little more
  than its ``processing()``: the port framing is prebound and rate-1
  outputs flush inline.
* **post ops** — block-capable sinks (no output ports): fired once per
  window for the completed periods.
* **metadata** — window size, dynamic-TDF watch list, the
  ``change_attributes`` overriders (*changers*) and a validation
  signature.

A changer is never hoisted or deferred: the executor calls its
``change_attributes()`` after every period, and it must then see the
state that period left, as on the interpreter.

Fallback classification is per module and reported through the
``tdf.engine_fallbacks`` telemetry counter, with
``tdf.engine_compiled_firings`` / ``tdf.engine_block_firings``
counting how much of the schedule left the interpreted path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...obs import get_telemetry
from ..module import TdfModule
from .blocks import FiringBlock, produce_block

#: Periods per execution window on the fast (static-schedule) path.
#: Bounds both rollback cost on a mid-window dynamic-TDF request and the
#: latency of deferred post-op sinks.
WINDOW_PERIODS = 32


class _ModuleInfo:
    __slots__ = ("capable", "windowable", "reasons", "siso")

    def __init__(self) -> None:
        self.capable = False
        self.windowable = False
        self.reasons: List[str] = []
        self.siso: Optional[str] = None  # "gain" | "copy" | None


def _block_consistent(cls: type) -> bool:
    """Whether ``cls``'s ``processing_block`` describes its ``processing``.

    A subclass that overrides ``processing`` without also overriding
    ``processing_block`` would execute the *parent's* block behaviour —
    walk the MRO and require the block implementation to live at (or
    above, in the same class as) the effective ``processing``.
    """
    for klass in cls.__mro__:
        if "processing_block" in klass.__dict__:
            return True
        if "processing" in klass.__dict__:
            return False
    return False


def _classify(module: TdfModule) -> _ModuleInfo:
    from ..library.siso import BufferTdf, DelayTdf, GainTdf

    info = _ModuleInfo()
    reasons = info.reasons
    if type(module).processing_block is TdfModule.processing_block:
        reasons.append("no_block")
    elif not _block_consistent(type(module)):
        reasons.append("processing_override")
    if module._processing_fn is not None:
        # Instrumented (or user-registered) processing: the class-level
        # processing_block no longer describes the executed behaviour.
        reasons.append("instrumented")
    if any(port.rate != 1 for port in module.ports()):
        reasons.append("multirate")
    info.capable = not reasons
    info.windowable = info.capable and type(module).BLOCK_WINDOWABLE
    if info.capable:
        # Exact-type check: a subclass may change behaviour in ways the
        # specialised op would not reproduce.  Undriven inputs fall back
        # to the generic op, which routes through port.read() and its
        # initial-value handling.
        cls = type(module)
        if cls in (GainTdf, DelayTdf, BufferTdf):
            in_sig = module.in_ports()[0].signal
            if in_sig is not None and in_sig.driver is not None:
                info.siso = "gain" if cls is GainTdf else "copy"
    return info


class _BlockFireOp:
    """Fire ``periods × q`` activations of one module in a single
    ``processing_block`` call (used for pre, post and coalesced core)."""

    __slots__ = ("module", "q", "ts_fs", "ins")

    def __init__(self, module: TdfModule, q: int, ts_fs: int) -> None:
        self.module = module
        self.q = q
        self.ts_fs = ts_fs
        self.ins = module.in_ports()

    def fire_period(self, base_fs: int) -> None:
        """Core-op entry point: one period's worth of firings."""
        self.fire(1, base_fs, None)

    def fire(self, periods: int, base_fs: int, rollback) -> None:
        module = self.module
        n = periods * self.q
        block = FiringBlock(n, module, base_fs, self.ts_fs)
        if rollback is not None:
            q = self.q
            note_in = rollback.ins.append
            for port in self.ins:
                note_in((port, q))
            rollback.mods.append((module, q, self.ts_fs))
        module.processing_block(block)
        if rollback is not None:
            note_out = rollback.outs.append
            for port, values in block.writes:
                note_out((port, self.q, values, port._last_value))
        for port, values in block.writes:
            produce_block(port, values)
        object.__setattr__(module, "activation_count", module.activation_count + n)


class _WindowRollback:
    """Undo hoisted pre-op production for periods that never executed."""

    __slots__ = ("ins", "outs", "mods")

    def __init__(self) -> None:
        self.ins: List[tuple] = []   # (reader port, per_period_tokens)
        self.outs: List[tuple] = []  # (port, per_period, values, prev_last)
        self.mods: List[tuple] = []  # (module, per_period_activations, ts_fs)

    def apply(self, total_periods: int, completed: int) -> None:
        dropped = total_periods - completed
        if dropped <= 0:
            return
        from .blocks import rollback_block

        for port, q in self.ins:
            port._cursor -= dropped * q
        for port, q, values, prev_last in self.outs:
            keep = completed * q
            last = values[keep - 1] if keep > 0 else prev_last
            rollback_block(port, dropped * q, last)
        for module, q, ts_fs in self.mods:
            object.__setattr__(
                module, "activation_count", module.activation_count - dropped * q
            )
            object.__setattr__(
                module, "_time_fs", module._time_fs - dropped * q * ts_fs
            )


def _make_siso_op(module, kind, offset_fs):
    """Specialised per-firing op for uninstrumented gain/delay/buffer:
    direct token move, no FiringBlock."""
    in_port = module.in_ports()[0]
    out_port = module.out_ports()[0]
    in_sig = in_port.signal
    out_sig = out_port.signal
    out_tokens = out_sig._tokens
    is_gain = kind == "gain"

    def op(base_fs, module=module, state=module.__dict__, offset_fs=offset_fs,
           in_port=in_port, out_port=out_port, in_sig=in_sig, out_sig=out_sig,
           out_tokens=out_tokens, is_gain=is_gain):
        state["_time_fs"] = base_fs + offset_fs
        cursor = in_port._cursor
        if cursor >= 0:
            try:
                value = in_sig._tokens[cursor - in_sig._base_index]
            except IndexError:
                # Past the end: _value_at raises the kernel's
                # read-past-end SimulationError with full context.
                value = in_sig._value_at(cursor, in_port)
        else:
            # Reader-side delay region: initial values.
            value = in_sig._value_at(cursor, in_port)
        # No per-firing GC: the executor sweeps every cluster signal
        # once per committed window.
        in_port._cursor = cursor + 1
        if is_gain:
            value = value * module.m_gain
        out_tokens.append(value)
        out_sig._write_count += 1
        out_port._flushed += 1
        out_port._last_value = value
        state["activation_count"] += 1

    return op


def _make_generic_op(module, offset_fs):
    """One interpreted firing with the framing decisions precomputed:
    prebound port lists, inline flush of rate-1 outputs, a single
    resolved processing callable.

    Module time and activation count go straight into the instance
    dict (what ``object.__setattr__`` would do, minus the call).  A
    rate-1 output needs no begin-of-firing ``_pending.clear()``: every
    flush, this op's and ``TdfOut._end_activation``'s, leaves it empty.
    """
    ins = tuple((port, port.rate) for port in module.in_ports())
    outs = module.out_ports()
    fast_outs = tuple((port, port.signal) for port in outs if port.rate == 1)
    slow_outs = tuple(port for port in outs if port.rate != 1)
    processing = module.resolved_processing()

    def op(base_fs, state=module.__dict__, offset_fs=offset_fs, ins=ins,
           fast_outs=fast_outs, slow_outs=slow_outs, processing=processing):
        state["_time_fs"] = base_fs + offset_fs
        for port, _rate in ins:
            port._in_activation = True
        for port, _sig in fast_outs:
            port._in_activation = True
        for port in slow_outs:
            port._begin_activation()
        try:
            processing()
        finally:
            for port, rate in ins:
                port._in_activation = False
                port._cursor += rate
            for port, sig in fast_outs:
                port._in_activation = False
                pending = port._pending
                if pending:
                    port._last_value = pending[-1][1]
                    pending.clear()
                sig._tokens.append(port._last_value)
                sig._write_count += 1
                port._flushed += 1
            for port in slow_outs:
                port._end_activation()
        state["activation_count"] += 1

    return op


class CompiledProgram:
    """The flattened firing program for one :class:`Schedule`."""

    __slots__ = (
        "schedule",
        "period_fs",
        "pre_ops",
        "core_ops",
        "post_ops",
        "dynamic_watch",
        "changers",
        "window",
        "signature",
        "stats",
    )

    def __init__(self) -> None:
        self.pre_ops: List[_BlockFireOp] = []
        self.core_ops: List = []
        self.post_ops: List[_BlockFireOp] = []
        self.dynamic_watch: List[TdfModule] = []
        #: Bound ``change_attributes`` of the modules that override it,
        #: in cluster order; the executor calls them after every period.
        self.changers: List = []
        self.window = WINDOW_PERIODS
        self.stats: Dict[str, Any] = {}


def program_signature(simulator) -> tuple:
    """Everything a compiled program bakes in that the kernel lets
    callers change between runs: the processing registrations.  Unequal
    signatures force a recompile."""
    return tuple(module._processing_fn for module in simulator.cluster.modules)


def compile_program(simulator, schedule) -> CompiledProgram:
    """Compile ``schedule`` into a :class:`CompiledProgram`."""
    cluster = simulator.cluster
    modules = list(cluster.modules)
    reps = schedule.repetitions
    ts_fs = {
        name: ts.femtoseconds for name, ts in schedule.module_timesteps.items()
    }
    info_map = {module: _classify(module) for module in modules}
    # Modules overriding change_attributes() run it after every period,
    # so they stay in the per-period core: hoisted or deferred, their
    # state would not be the period's when the hook reads it.
    changers = [
        module
        for module in modules
        if type(module).change_attributes is not TdfModule.change_attributes
    ]

    # Pre set: windowable modules whose every driven input is fed by
    # another pre module (fixpoint).  Their samples are produced for the
    # whole window up front; a mid-window schedule change rolls the
    # excess back.  A module only enters once its producers are members,
    # so the insertion order IS a topological firing order — and
    # feedback cycles (whose delay slack covers one period, not a whole
    # window) can never enter.
    pre: set = set()
    pre_order: List[TdfModule] = []
    changed = True
    while changed:
        changed = False
        for module in modules:
            info = info_map[module]
            if module in pre or not info.windowable or module in changers:
                continue
            if all(
                port.signal.driver is None or port.signal.driver.module in pre
                for port in module.in_ports()
            ):
                pre.add(module)
                pre_order.append(module)
                changed = True

    # Post set: block-capable pure sinks — no output ports, so deferring
    # their firings to the end of the window is unobservable.
    post = {
        module
        for module in modules
        if module not in pre
        and module not in changers
        and info_map[module].capable
        and not module.out_ports()
    }

    program = CompiledProgram()
    program.schedule = schedule
    program.period_fs = schedule.period_fs
    program.changers = [module.change_attributes for module in changers]

    for module in pre_order:
        program.pre_ops.append(
            _BlockFireOp(module, reps[module.name], ts_fs[module.name])
        )
    for module in modules:
        if module in post:
            program.post_ops.append(
                _BlockFireOp(module, reps[module.name], ts_fs[module.name])
            )

    firings = schedule.firings
    total = len(firings)
    block_firings = 0
    generic_modules = []
    i = 0
    while i < total:
        module, fidx = firings[i]
        info = info_map[module]
        if module in pre or module in post:
            block_firings += 1
            i += 1
            continue
        offset = ts_fs[module.name] * fidx
        if info.siso is not None:
            program.core_ops.append(_make_siso_op(module, info.siso, offset))
            block_firings += 1
            i += 1
            continue
        q = reps[module.name]
        if (
            info.capable
            and fidx == 0
            and i + q <= total
            and all(firings[i + k] == (module, k) for k in range(q))
        ):
            # All q firings are consecutive in the PASS: the tokens for
            # every firing were available at the first one (nothing else
            # fires in between), so they coalesce into one block call.
            program.core_ops.append(
                _BlockFireOp(module, q, ts_fs[module.name]).fire_period
            )
            program.dynamic_watch.append(module)
            block_firings += q
            i += q
            continue
        program.core_ops.append(_make_generic_op(module, offset))
        if fidx == 0:
            generic_modules.append(module)
        i += 1

    program.dynamic_watch.extend(generic_modules)
    program.signature = program_signature(simulator)

    fallback_firings = total - block_firings
    program.stats = {
        "total_firings": total,
        "block_firings": block_firings,
        "interpreted_firings": fallback_firings,
        "block_ratio": block_firings / total if total else 0.0,
        "pre_modules": sorted(m.name for m in pre),
        "post_modules": sorted(m.name for m in post),
        "fallbacks": {
            module.name: info_map[module].reasons
            for module in modules
            if info_map[module].reasons
        },
    }

    tel = get_telemetry()
    if tel.enabled:
        name = cluster.name
        metrics = tel.metrics
        metrics.counter("tdf.engine_compiled_firings", cluster=name).inc(total)
        metrics.counter("tdf.engine_block_firings", cluster=name).inc(block_firings)
        for module in modules:
            for reason in info_map[module].reasons:
                metrics.counter(
                    "tdf.engine_fallbacks", cluster=name, reason=reason
                ).inc()
    return program
