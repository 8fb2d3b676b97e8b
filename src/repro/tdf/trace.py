"""Signal tracing (the ``sca_trace`` analogue).

:class:`Tracer` records ``(time, value)`` rows per signal.  Traces feed
the examples' plots/dumps, give tests a way to assert on waveforms and
are the mutation oracle's observation.

Tracing adds no work per sample: a :class:`SignalTrace` copies the
signal's committed tokens out of its buffer (garbage collection hands
them over before dropping them; every read copies the tail).  The
schedule is static between swaps, so token ``i`` is at ``anchor +
(i - anchor_index) × port timestep``, anchored by the simulator at
``initialize()`` and every schedule swap; output-delay priming tokens,
written before the first anchor, have no time.
"""

from __future__ import annotations

import csv
import io
from itertools import islice
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .errors import TdfError
from .signal import Signal
from .time import ScaTime

Row = Tuple[Optional[ScaTime], Any]


class SignalTrace:
    """The rows of one traced signal, copied from its token buffer."""

    __slots__ = ("signal", "rows", "_copied", "_times")

    def __init__(self, signal: Signal, times: Dict[int, ScaTime]) -> None:
        self.signal = signal
        self.rows: List[Row] = []
        #: Global index of the next token to copy.
        self._copied = 0
        #: ``fs -> ScaTime`` memo shared by the tracer's signals.
        self._times = times

    def copy(self) -> None:
        """Append a row for every token written since the last copy."""
        signal = self.signal
        start = self._copied
        end = signal._write_count
        if start >= end:
            return
        base = signal._base_index
        values = islice(signal._tokens, start - base, end - base)
        if signal._anchor is None:
            self.rows.extend((None, value) for value in values)
        else:
            index, anchor_fs, step = signal._anchor
            first = anchor_fs + (start - index) * step
            grid = range(first, first + (end - start) * step, step)
            times = self._times
            for t_fs in grid:
                if t_fs not in times:
                    times[t_fs] = ScaTime.from_femtoseconds(t_fs)
            self.rows.extend(zip(map(times.__getitem__, grid), values))
        self._copied = end

    def restart(self) -> None:
        """The signal's buffer is about to be reset: keep the rows so
        far and count tokens from zero again."""
        self.copy()
        self._copied = 0


class Tracer:
    """Records the sample stream of one or more signals."""

    def __init__(self) -> None:
        self._traces: Dict[str, SignalTrace] = {}
        self._order: List[str] = []
        self._times: Dict[int, ScaTime] = {}

    def trace(self, signal: Signal, name: Optional[str] = None) -> None:
        """Start recording ``signal`` (under ``name`` if given).

        **Contract:** call before the first sample is produced on the
        signal (i.e. before simulation starts, like ``sca_trace`` in
        SystemC-AMS).  A tracer attached later would silently miss every
        earlier sample, so this raises :class:`~repro.tdf.errors.TdfError`
        instead of producing a truncated waveform.
        """
        if signal.write_count > 0:
            raise TdfError(
                f"cannot start tracing signal {signal.name!r}: it already "
                f"carries {signal.write_count} sample(s); attach the Tracer "
                f"before the simulation starts (the trace would silently "
                f"miss the earlier samples otherwise)"
            )
        key = name or signal.name
        if key in self._traces:
            raise ValueError(f"already tracing a signal under name {key!r}")
        trace = SignalTrace(signal, self._times)
        self._traces[key] = trace
        self._order.append(key)
        signal._traces += (trace,)

    def names(self) -> List[str]:
        """Traced signal names in registration order."""
        return list(self._order)

    def _rows(self, name: str) -> List[Row]:
        trace = self._traces[name]
        trace.copy()
        return trace.rows

    def samples(self, name: str, start: int = 0) -> List[Row]:
        """The recorded ``(time, value)`` rows of ``name`` from row
        ``start`` on (all of them by default)."""
        return self._rows(name)[start:]

    def values(self, name: str) -> List[Any]:
        """Just the values of ``name``, in sample order."""
        return [value for _, value in self._rows(name)]

    def last(self, name: str) -> Any:
        """Most recent value of ``name``."""
        rows = self._rows(name)
        if not rows:
            raise ValueError(f"no samples recorded for {name!r}")
        return rows[-1][1]

    def clear(self) -> None:
        """Drop all recorded samples (keeps subscriptions)."""
        for name in self._order:
            self._rows(name).clear()

    # -- tabular dump --------------------------------------------------------

    def write_tabular(self, stream: TextIO, time_unit: str = "us") -> None:
        """Write all traces as a whitespace-separated table.

        One row per distinct sample time, one column per traced signal;
        missing samples repeat the previous value (sample-and-hold),
        matching the tabular trace format of SystemC-AMS.
        """
        for row in self._table(time_unit):
            stream.write("\t".join(row) + "\n")

    def to_tabular(self, time_unit: str = "us") -> str:
        """Return the tabular dump as a string."""
        buf = io.StringIO()
        self.write_tabular(buf, time_unit)
        return buf.getvalue()

    def write_csv(self, stream: TextIO, time_unit: str = "us") -> None:
        """Write all traces as CSV (same sample-and-hold table as
        :meth:`write_tabular`, RFC-4180 quoting via :mod:`csv`)."""
        csv.writer(stream, lineterminator="\n").writerows(self._table(time_unit))

    def to_csv(self, time_unit: str = "us") -> str:
        """Return the CSV dump as a string."""
        buf = io.StringIO()
        self.write_csv(buf, time_unit)
        return buf.getvalue()

    def _table(self, time_unit: str):
        """Yield the sample-and-hold table as rows of strings: the header,
        then one row per distinct sample time.  Untimed (output-delay
        priming) rows are held from the first time on."""
        traces = {name: self._rows(name) for name in self._order}
        times = sorted(
            {t.femtoseconds for rows in traces.values() for t, _ in rows if t is not None}
        )
        yield ["time_" + time_unit] + self._order
        held = dict.fromkeys(self._order, "")
        cursors = dict.fromkeys(self._order, 0)
        for t_fs in times:
            for name, rows in traces.items():
                i = cursors[name]
                while i < len(rows) and (
                    rows[i][0] is None or rows[i][0].femtoseconds <= t_fs
                ):
                    held[name] = rows[i][1]
                    i += 1
                cursors[name] = i
            t = ScaTime.from_femtoseconds(t_fs).to(time_unit)
            yield [f"{t:g}"] + [str(held[name]) for name in self._order]
