"""TDF signals: single-driver, multi-reader token streams.

A :class:`Signal` connects exactly one output port (the *driver*) to any
number of input ports (the *readers*).  Tokens written to the signal are
identified by a monotonically increasing global index — index ``i`` is
the ``i``-th sample ever produced on the signal.  Every reader port
owns a cursor into that stream (``TdfIn._cursor``); a reader whose input port declares a delay of
``d`` starts its cursor at ``-d`` and consumes ``d`` initial values
before it sees the first real token.

The global token index is the backbone of the dynamic data-flow
analysis: a *definition* event recorded at write time and a *use* event
recorded at read time are joined on ``(signal, token_index)``, which is
exact because the kernel is deterministic (see
:mod:`repro.instrument.matching`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple, TYPE_CHECKING

from .errors import BindingError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ports import TdfIn, TdfOut
    from .trace import SignalTrace


class Signal:
    """A timed token stream with one driver and many readers."""

    __slots__ = (
        "name",
        "initial_value",
        "driver",
        "readers",
        "_tokens",
        "_base_index",
        "_write_count",
        "_traces",
        "_anchor",
    )

    def __init__(self, name: str, initial_value: Any = 0.0) -> None:
        self.name = name
        #: Value returned for delay tokens unless the reader overrides it.
        self.initial_value = initial_value
        self.driver: Optional["TdfOut"] = None
        self.readers: List["TdfIn"] = []
        # Token storage. ``_tokens[0]`` holds the token with global index
        # ``_base_index``; consumed tokens are dropped from the left.
        self._tokens: Deque[Any] = deque()
        self._base_index = 0
        self._write_count = 0
        # Trace sinks (:class:`~repro.tdf.trace.SignalTrace`): tokens are
        # handed to them before garbage collection drops them.
        self._traces: Tuple["SignalTrace", ...] = ()
        #: ``(token_index, time_fs, timestep_fs)``: where the schedule
        #: puts the tokens from ``token_index`` on (see :meth:`anchor`).
        self._anchor: Optional[Tuple[int, int, int]] = None

    # -- topology ---------------------------------------------------------

    def attach_driver(self, port: "TdfOut") -> None:
        """Register ``port`` as the signal's unique driver."""
        if self.driver is not None and self.driver is not port:
            raise BindingError(
                f"signal {self.name!r} already driven by "
                f"{self.driver.full_name()}; cannot also bind {port.full_name()}"
            )
        self.driver = port

    def attach_reader(self, port: "TdfIn") -> None:
        """Register ``port`` as one of the signal's readers."""
        if port not in self.readers:
            self.readers.append(port)
            port._cursor = 0

    # -- elaboration-time state -------------------------------------------

    def reset(self) -> None:
        """Reset token storage and cursors for a fresh simulation run."""
        for trace in self._traces:
            trace.restart()
        self._tokens.clear()
        self._base_index = 0
        self._write_count = 0
        self._anchor = None
        for port in self.readers:
            port._cursor = -port.delay

    def prime_output_delay(self, count: int, values: Optional[List[Any]] = None) -> None:
        """Insert ``count`` initial tokens produced by an output-port delay.

        SystemC-AMS allows a delay on the *output* port, in which case
        the port emits ``count`` initial samples before the first
        computed one.  ``values`` overrides the per-token initial values
        (padded with :attr:`initial_value`).
        """
        for i in range(count):
            given = values is not None and i < len(values)
            self.write(values[i] if given else self.initial_value)

    def anchor(self, now_fs: int) -> None:
        """Time the next token at ``now_fs``: the simulator calls this at
        ``initialize()`` and after every schedule swap, and the static
        schedule then puts one token per driver-port timestep."""
        for trace in self._traces:
            trace.copy()  # the tokens so far belong to the old anchor
        driver = self.driver
        if driver is None or driver.timestep is None:
            self._anchor = None
        else:
            self._anchor = (self._write_count, now_fs, driver.timestep.femtoseconds)

    # -- simulation-time API ------------------------------------------------

    @property
    def write_count(self) -> int:
        """Total number of tokens ever written (including delay priming)."""
        return self._write_count

    def available(self, port: "TdfIn") -> int:
        """Number of tokens ``port`` could consume right now."""
        cursor = port._cursor
        return self._write_count - max(cursor, 0) + max(-cursor, 0)

    def write(self, value: Any) -> int:
        """Append one token; returns its global index."""
        index = self._write_count
        self._tokens.append(value)
        self._write_count += 1
        return index

    def peek(self, port: "TdfIn", offset: int = 0) -> Any:
        """Return the token ``offset`` positions ahead of ``port``'s cursor
        without consuming it."""
        return self._value_at(port._cursor + offset, port)

    def consume(self, port: "TdfIn", count: int) -> List[Any]:
        """Consume ``count`` tokens for ``port`` and return them in order
        (delay/initial tokens first)."""
        cursor = port._cursor
        values = [self._value_at(cursor + i, port) for i in range(count)]
        port._cursor = cursor + count
        self._collect_garbage()
        return values

    def _value_at(self, index: int, port: "TdfIn") -> Any:
        if index < 0:
            # Delay/initial value region.  A reader may carry its own
            # initial-value list (index -1 maps to the *last* element so
            # that values appear in write order).
            init = port.initial_values
            if init:
                mapped = len(init) + index
                if 0 <= mapped < len(init):
                    return init[mapped]
            return self.initial_value
        if index >= self._write_count:
            raise SimulationError(
                f"read past end of signal {self.name!r}: token {index} "
                f"requested but only {self._write_count} written "
                f"(reader {port.full_name()})"
            )
        offset = index - self._base_index
        if offset < 0:
            raise SimulationError(
                f"token {index} of signal {self.name!r} already discarded"
            )
        return self._tokens[offset]

    def _collect_garbage(self) -> None:
        """Drop tokens every reader has consumed to bound memory.

        Amortised: the min-cursor scan only runs once the retained
        backlog exceeds a small threshold, which keeps the per-sample
        cost constant without letting buffers grow unbounded.  This is
        the only place tokens leave the buffer, so trace sinks copy
        their rows here before the drop.
        """
        if not self.readers:
            return
        if len(self._tokens) < 64:
            return
        min_cursor = min(p._cursor for p in self.readers)
        limit = min(min_cursor, self._write_count)
        drop = limit - self._base_index
        if drop <= 0:
            return
        for trace in self._traces:
            trace.copy()
        for _ in range(drop):
            self._tokens.popleft()
        self._base_index += drop

    # -- debugging ----------------------------------------------------------

    def __repr__(self) -> str:
        driver = self.driver.full_name() if self.driver else None
        return (
            f"Signal({self.name!r}, driver={driver}, "
            f"readers={len(self.readers)}, written={self._write_count})"
        )
