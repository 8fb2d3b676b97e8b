"""Signal tracing (the ``sca_trace`` analogue).

:class:`Tracer` subscribes to signal writes and records ``(time,
value)`` rows per signal.  Traces feed the examples' plots/dumps and
give tests a way to assert on waveforms.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple

from .errors import TdfError
from .signal import Signal
from .time import ScaTime

Row = Tuple[Optional[ScaTime], Any]


class Tracer:
    """Records the sample stream of one or more signals."""

    def __init__(self) -> None:
        self._traces: Dict[str, List[Row]] = {}
        self._order: List[str] = []

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
        self._traces[key] = []
        self._order.append(key)

        def observer(sig: Signal, index: int, value: Any, time: Optional[ScaTime]) -> None:
            self._traces[key].append((time, value))

        signal.add_write_observer(observer)

    def names(self) -> List[str]:
        """Traced signal names in registration order."""
        return list(self._order)

    def samples(self, name: str, start: int = 0) -> List[Row]:
        """The recorded ``(time, value)`` rows of ``name`` from row
        ``start`` on (all of them by default)."""
        return self._traces[name][start:]

    def values(self, name: str) -> List[Any]:
        """Just the values of ``name``, in sample order."""
        return [value for _, value in self._traces[name]]

    def last(self, name: str) -> Any:
        """Most recent value of ``name``."""
        rows = self._traces[name]
        if not rows:
            raise ValueError(f"no samples recorded for {name!r}")
        return rows[-1][1]

    def clear(self) -> None:
        """Drop all recorded samples (keeps subscriptions)."""
        for rows in self._traces.values():
            rows.clear()

    # -- tabular dump --------------------------------------------------------

    def write_tabular(self, stream: TextIO, time_unit: str = "us") -> None:
        """Write all traces as a whitespace-separated table.

        One row per distinct sample time, one column per traced signal;
        missing samples repeat the previous value (sample-and-hold),
        matching the tabular trace format of SystemC-AMS.
        """
        for t, held in self._held_rows(time_unit):
            if t is None:
                stream.write(
                    "time_" + time_unit + "\t" + "\t".join(self._order) + "\n"
                )
            else:
                stream.write(
                    f"{t:g}\t"
                    + "\t".join(str(held[name]) for name in self._order)
                    + "\n"
                )

    def to_tabular(self, time_unit: str = "us") -> str:
        """Return the tabular dump as a string."""
        buf = io.StringIO()
        self.write_tabular(buf, time_unit)
        return buf.getvalue()

    def write_csv(self, stream: TextIO, time_unit: str = "us") -> None:
        """Write all traces as CSV (same sample-and-hold table as
        :meth:`write_tabular`, RFC-4180 quoting via :mod:`csv`)."""
        writer = csv.writer(stream, lineterminator="\n")
        for t, held in self._held_rows(time_unit):
            if t is None:
                writer.writerow(["time_" + time_unit] + list(self._order))
            else:
                writer.writerow(
                    [f"{t:g}"] + [str(held[name]) for name in self._order]
                )

    def to_csv(self, time_unit: str = "us") -> str:
        """Return the CSV dump as a string."""
        buf = io.StringIO()
        self.write_csv(buf, time_unit)
        return buf.getvalue()

    def _held_rows(self, time_unit: str):
        """Yield the sample-and-hold table: a ``(None, names)`` header
        row, then one ``(time, {name: value})`` row per distinct time."""
        times = sorted(
            {
                t.femtoseconds
                for rows in self._traces.values()
                for t, _ in rows
                if t is not None
            }
        )
        yield None, None
        held: Dict[str, Any] = {name: "" for name in self._order}
        cursors = {name: 0 for name in self._order}
        for t_fs in times:
            for name in self._order:
                rows = self._traces[name]
                i = cursors[name]
                while i < len(rows) and rows[i][0] is not None and rows[i][0].femtoseconds <= t_fs:
                    held[name] = rows[i][1]
                    i += 1
                cursors[name] = i
            yield ScaTime.from_femtoseconds(t_fs).to(time_unit), held
