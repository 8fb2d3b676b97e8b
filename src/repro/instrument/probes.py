"""Runtime probes: the online def-use pairer (paper §V).

The paper's dynamic analysis inserts a print instruction before every
definition/use and "each definition is mapped onto a corresponding use
as soon as it is encountered".  :class:`ProbeRuntime` does exactly
that while the simulation runs; no event is stored:

* **local/member variables** — a def site stores its line in
  :attr:`ProbeRuntime.last_def` under ``(model, var)``; a use site adds
  ``((var, model, line), last def line)`` to
  :attr:`ProbeRuntime.use_hits` (the instrumenter emits both as C-level
  dict/set operations on per-site constants);
* **ports** — each instrumented port access site calls its own
  accessor (:meth:`ProbeRuntime.reader` / :meth:`ProbeRuntime.writer`).
  A write folds its token into the signal's :class:`_SignalWrites`
  index.  A signal driven by an uninstrumented module (a testbench
  source or a redefining library element) has one *static* def site
  instead, the reader's placeholder def or the netlist bind site
  (paper §V), in :attr:`ProbeRuntime.static_sites`.  A read pairs with
  that site or with the floor of the writes recorded so far, adding
  the pair to :attr:`ProbeRuntime.read_hits`;
* reads of **undriven** signals are noted once per port, in
  first-seen order (:attr:`ProbeRuntime.undriven`).

:func:`repro.instrument.matching.match_events` turns the hits into
exercised pairs.  The runtime's state is O(def/use sites and write
runs), not O(events).
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, List, Optional, Set, Tuple


class UseWithoutDefWarning(UserWarning):
    """A port was used although its signal is never defined.

    Undefined behaviour per the SystemC-AMS standard; the paper found
    exactly this bug class in both case-study VPs ("the ports were not
    defined, but still used in a different TDF model", §VI-B).
    """


#: Write site of every testbench token: a read of one pairs with the
#: reader's own placeholder definition, whoever the testbench writer was.
TESTBENCH_SITE = ("testbench",)


class _SignalWrites:
    """Run-length compressed write index of one signal.

    Consecutive token indices written by the same source site collapse
    into one ``(start, end, site)`` run; out-of-order or re-written
    tokens go to a small exception dict.  Periodic single-site writers
    stay a handful of runs regardless of simulation length.

    Last-write-wins is structural: a run entry at token ``t`` is only
    created while the frontier (greatest token seen) is below ``t``,
    whereas an exception at ``t`` is created at or behind the frontier
    — i.e. later — so on a floor query an exception shadows a run entry
    at the same token, and dict assignment keeps the last exception.
    """

    __slots__ = ("run_starts", "run_ends", "run_sites", "exceptions", "_exc_sorted")

    def __init__(self) -> None:
        self.run_starts: List[int] = []
        self.run_ends: List[int] = []
        self.run_sites: List[tuple] = []
        self.exceptions: Dict[int, tuple] = {}
        self._exc_sorted: List[int] = []

    def add(self, token: int, site: tuple) -> None:
        ends = self.run_ends
        if ends:
            frontier = ends[-1]
            if token == frontier + 1 and site == self.run_sites[-1]:
                ends[-1] = token
                return
            if token <= frontier:
                if token not in self.exceptions:
                    bisect.insort(self._exc_sorted, token)
                self.exceptions[token] = site
                return
        self.run_starts.append(token)
        ends.append(token)
        self.run_sites.append(site)

    def floor(self, token: int) -> Optional[tuple]:
        """Site of the last write at the greatest index <= ``token``."""
        starts = self.run_starts
        if not self.exceptions:
            if starts and token >= starts[-1]:  # the common case: the newest run
                return self.run_sites[-1]
            pos = bisect.bisect_right(starts, token) - 1
            return self.run_sites[pos] if pos >= 0 else None
        best: Optional[tuple] = None
        pos = bisect.bisect_right(starts, token) - 1
        if pos >= 0:
            best_token = min(token, self.run_ends[pos])
            best = self.run_sites[pos]
        exc_sorted = self._exc_sorted
        epos = bisect.bisect_right(exc_sorted, token) - 1
        if epos >= 0 and (best is None or exc_sorted[epos] >= best_token):
            return self.exceptions[exc_sorted[epos]]
        return best


class ProbeRuntime:
    """Pairs the defs and uses of one testcase execution as they run.

    Every driven signal has one driver, so its tokens are paired one of
    two ways:

    * an uninstrumented driver (testbench source, redefining library
      element) defines every token at one static site, whether or not
      its ``processing()`` called ``write()``; a read of token ``j``
      pairs with that site unless ``j`` is below the driver port's
      delay (output-delay priming: initial values, not definitions);
    * an instrumented model's writes are recorded, and a read pairs
      with the floor of the writes recorded so far.  That is the
      floor of all writes of the run because every TDF schedule
      records *every write of token j on a signal before any read of a
      token >= j on it* (a reader fires after the writers of the tokens
      it consumes; the block engine fires instrumented models one
      firing at a time, in schedule order).

    State, all of it bounded by sites and write runs:

    * :attr:`last_def` — ``(model, var)`` -> line of the latest def;
    * :attr:`use_hits` — ``((var, model, use_line), def_line)``, with
      ``def_line`` ``None`` for a use before any def;
    * :attr:`static_sites` — signal name -> ``(driver_port, site)`` for
      the uninstrumented drivers, ``site`` being
      :data:`TESTBENCH_SITE` or ``(var, model, line)``;
    * :attr:`signal_writes` — signal name -> :class:`_SignalWrites` of
      the instrumented-model writes;
    * :attr:`read_hits` — ``(var, def_model, def_line, use_model,
      use_line)`` pairs of port reads; ``def_line`` is ``None`` for a
      testbench token (var and def model are then the reading port and
      model; the matcher substitutes the reader's placeholder line);
    * :attr:`undriven` — ``(reader_model, port)`` -> signal name of
      reads on undriven signals, in first-seen order.
    """

    def __init__(self, cluster_name: str) -> None:
        self.cluster_name = cluster_name
        self.last_def: Dict[Tuple[str, str], int] = {}
        self.use_hits: Set[tuple] = set()
        self.static_sites: Dict[str, tuple] = {}
        self.signal_writes: Dict[str, _SignalWrites] = {}
        self.read_hits: Set[tuple] = set()
        self.undriven: Dict[Tuple[str, str], str] = {}

    def reader(self, port, reader: str, anchor: tuple) -> Callable[..., Any]:
        """The accessor of one instrumented read site of ``port``.

        ``reader`` is the reading model, ``anchor`` the ``(model, line)``
        the use is attributed to.  The accessor reads through
        :meth:`~repro.tdf.ports.TdfIn.read`, so every port-access check
        stays, and pairs token ``port._cursor + offset``.  It binds only
        what the netlist fixes (signal, driver, static site; register
        static sites first) and reads the driver's delay per call.
        """
        read = port.read
        sig = port.signal
        if sig is None:
            return read  # raises the unbound-port PortAccessError
        add_hit = self.read_hits.add
        if sig.driver is None:
            undriven, key = self.undriven, (reader, port.name)

            def read_undriven(offset=0):
                value = read(offset)
                undriven[key] = sig.name
                return value

            return read_undriven
        static = self.static_sites.get(sig.name)
        if static is not None:
            driver, site = static
            if site is TESTBENCH_SITE:
                site = (port.name, reader, None)
            hit = site + anchor

            def read_static(offset=0):
                value = read(offset)
                # Below the driver's output delay: priming values (and,
                # negative, reader-side delay values), not definitions.
                if port._cursor + offset >= driver.delay:
                    add_hit(hit)
                return value

            return read_static
        floor = self.signal_writes.setdefault(sig.name, _SignalWrites()).floor
        hits: Dict[tuple, tuple] = {}

        def read_written(offset=0):
            value = read(offset)
            token = port._cursor + offset
            site = floor(token) if token >= 0 else None
            if site is not None:
                hit = hits.get(site)
                if hit is None:
                    hit = hits[site] = site + anchor
                add_hit(hit)
            return value

        return read_written

    def writer(self, port, site: tuple) -> Callable[..., int]:
        """The accessor of one instrumented write site of ``port``:
        writes through :meth:`~repro.tdf.ports.TdfOut.write` and records
        token -> ``site`` (``(var, model, line)``) in the signal's
        :class:`_SignalWrites`."""
        write = port.write
        if port.signal is None:
            return write  # raises the unbound-port PortAccessError
        add = self.signal_writes.setdefault(port.signal.name, _SignalWrites()).add

        def write_site(value, offset=0):
            index = write(value, offset)
            add(index, site)
            return index

        return write_site
