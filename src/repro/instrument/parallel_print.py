"""Parallel-print taps (paper §V).

To observe data flowing into redefining library components without
modifying them, the paper inserts a separate TDF module in parallel —
``parallel_print()`` — that receives the same signal and logs it.
:class:`ParallelPrint` is that module; :func:`tap_signal` attaches one
to an existing signal.

The dynamic runner needs no observer: a redefining element's tokens
are defined at its static netlist bind site (see
:mod:`repro.instrument.probes`).  The tap remains part of the public
API because it works on *any* kernel object graph; the test suite
checks that it sees exactly the rows a :class:`~repro.tdf.trace.Tracer`
records on the same signal.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..tdf.cluster import Cluster
from ..tdf.module import TdfModule
from ..tdf.ports import TdfIn
from ..tdf.signal import Signal


class ParallelPrint(TdfModule):
    """A non-intrusive observer bound in parallel to a signal.

    Records every ``(global_token_index, value)`` sample it sees.  As a
    testbench module it is invisible to the static analysis, so adding a
    tap never changes the coverage universe.
    """

    TESTBENCH = True
    OPAQUE_USES = True

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ip = TdfIn()
        self.m_samples: List[Tuple[int, Any]] = []

    def processing(self) -> None:
        index = self.ip.global_index(0)
        value = self.ip.read()
        self.m_samples.append((index, value))

    def values(self) -> List[Any]:
        """Observed values in token order."""
        return [value for _, value in self.m_samples]

    def clear(self) -> None:
        """Drop all recorded samples."""
        self.m_samples.clear()


def tap_signal(cluster: Cluster, signal: Signal, name: Optional[str] = None) -> ParallelPrint:
    """Attach a :class:`ParallelPrint` tap to ``signal``.

    Must be called before elaboration (the tap participates in the
    static schedule like any other module).
    """
    tap = ParallelPrint(name or f"tap_{signal.name}")
    cluster.add(tap)
    tap.ip.bind(signal)
    return tap
