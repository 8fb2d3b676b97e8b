"""Block-mode sample access: :class:`FiringBlock` and signal helpers.

A *block* is ``n`` consecutive rate-1 firings of one module, presented
to :meth:`~repro.tdf.module.TdfModule.processing_block` as whole sample
lists instead of ``n`` separate ``read()``/``write()`` round trips.  The
helpers in this module are the only code that touches signal internals
on behalf of the compiled engine; they reproduce the exact observable
effects of the interpreted path (cursor positions, ``_write_count``,
``_flushed``, sample-and-hold state) so that interleaving block and
interpreted firings stays bit-identical.  Library elements compute
their output blocks with plain per-sample list comprehensions, the same
arithmetic in the same order as their ``processing()``.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, List, TYPE_CHECKING

from ..errors import TdfError
from ..time import _UNIT_FS

#: ``ScaTime.to_seconds()`` divides the femtosecond count by this.
_FS_PER_S = _UNIT_FS["s"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ports import TdfIn, TdfOut


def consume_block(port: "TdfIn", n: int) -> List[Any]:
    """Consume ``n`` tokens through ``port`` and return them in order.

    Equivalent to ``n`` interpreted rate-1 activations each doing one
    ``read()`` then ``_end_activation()`` — except that garbage
    collection is deferred to the end of the execution window (the
    executor sweeps every cluster signal after committing a window).
    Collecting here would be unsafe: a mid-window dynamic-TDF request
    rolls this cursor *back*, and tokens collected under the advanced
    cursor would be unrecoverable.  GC timing is internal either way.
    """
    sig = port.signal
    cursor = port._cursor
    if sig.driver is None:
        # Undriven signal: mirror TdfIn.read()'s initial-value semantics.
        init = port.initial_values
        if cursor >= 0 or not init:
            values = [sig.initial_value] * n
        else:
            values = []
            ninit = len(init)
            iv = sig.initial_value
            for k in range(cursor, cursor + n):
                if k < 0:
                    mapped = ninit + k
                    values.append(init[mapped] if 0 <= mapped < ninit else iv)
                else:
                    values.append(iv)
    elif cursor >= 0 and cursor + n <= sig._write_count:
        start = cursor - sig._base_index
        if start >= 0:
            values = list(islice(sig._tokens, start, start + n))
        else:  # pragma: no cover - engine never resurrects discarded tokens
            values = [sig._value_at(k, port) for k in range(cursor, cursor + n)]
    else:
        # Delay region or (engine bug) read-past-end: the slow path
        # raises the same SimulationError messages as the interpreter.
        values = [sig._value_at(k, port) for k in range(cursor, cursor + n)]
    port._cursor = cursor + n
    return values


def produce_block(port: "TdfOut", values: List[Any]) -> None:
    """Append a whole block of samples through ``port``.

    Equivalent to ``n`` interpreted rate-1 activations each flushing one
    written sample (``TdfOut._end_activation``).  A traced signal
    needs nothing more: its tracer copies the tokens out of the buffer
    and times them from the schedule (:mod:`repro.tdf.trace`).
    """
    sig = port.signal
    sig._tokens.extend(values)
    sig._write_count += len(values)
    port._flushed += len(values)
    port._last_value = values[-1]


def rollback_block(port: "TdfOut", excess: int, last_value: Any) -> None:
    """Un-produce the last ``excess`` samples written via ``produce_block``.

    Used when a dynamic-TDF request lands mid-window: samples hoisted
    for periods that will not execute under the old schedule are popped
    off the tail (they are unconsumed by construction — readers only
    consumed up to the completed periods).
    """
    sig = port.signal
    tokens = sig._tokens
    for _ in range(excess):
        tokens.pop()
    sig._write_count -= excess
    port._flushed -= excess
    port._last_value = last_value


class FiringBlock:
    """``n`` consecutive rate-1 firings of one module, as sample blocks.

    Passed to :meth:`~repro.tdf.module.TdfModule.processing_block`.
    Reads consume immediately; writes are collected and flushed by the
    engine after the callback returns (so the engine can account for
    probe events and rollback state in one place).
    """

    __slots__ = ("n", "module", "_base_fs", "_ts_fs", "writes", "_times")

    def __init__(self, n: int, module, base_fs: int, ts_fs: int) -> None:
        self.n = n
        self.module = module
        # Module time as the interpreter leaves it: the last firing's.
        object.__setattr__(module, "_time_fs", base_fs + (n - 1) * ts_fs)
        self._base_fs = base_fs
        self._ts_fs = ts_fs
        #: ``(port, values)`` pairs in write order; flushed by the engine.
        self.writes: List[tuple] = []
        self._times: Any = None

    def read(self, port: "TdfIn") -> List[Any]:
        """The ``n`` input samples for this block, in firing order."""
        return consume_block(port, self.n)

    def write(self, port: "TdfOut", values: List[Any]) -> None:
        """Stage the ``n`` output samples for this block."""
        if len(values) != self.n:
            raise TdfError(
                f"processing_block of {self.module.name!r} wrote "
                f"{len(values)} samples to {port.full_name()}, expected {self.n}"
            )
        self.writes.append((port, values if isinstance(values, list) else list(values)))

    def times_seconds(self) -> List[float]:
        """``local_time().to_seconds()`` for each firing, bit-identical:
        the same exact femtosecond count over the same divisor, without
        a ScaTime per firing.  Cached; sinks that never look at times
        skip the cost entirely."""
        if self._times is None:
            base, ts = self._base_fs, self._ts_fs
            self._times = [(base + k * ts) / _FS_PER_S for k in range(self.n)]
        return self._times

