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
* **ports** — the ``pw`` probe folds every token an instrumented model
  writes into the signal's :class:`_SignalWrites` index.  A signal
  driven by an uninstrumented module (a testbench source or a
  redefining library element) has one *static* def site instead, the
  reader's placeholder def or the netlist bind site (paper §V), in
  :attr:`ProbeRuntime.static_sites`.  ``pr`` pairs each read with that
  site or with the floor of the writes recorded so far, adding the
  resolved pair to :attr:`ProbeRuntime.read_hits`;
* reads of **undriven** signals are noted once per port, in
  first-seen order (:attr:`ProbeRuntime.undriven`).

:func:`repro.instrument.matching.match_events` turns the hits into
exercised pairs.  The runtime's state is O(def/use sites and write
runs), not O(events).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set, Tuple


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
            if token >= starts[-1]:  # the common case: the newest run
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
    * an instrumented model's ``pw`` calls are recorded, and a read
      pairs with the floor of the writes recorded so far.  That is the
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
        self._install()

    def _install(self) -> None:
        """Install the ``pr``/``pw`` closures and the ``record_write`` /
        ``record_read`` entry points they pair through.

        The instrumented code calls ``__dft_probe__.pr(self, ...)`` — an
        instance-dict lookup resolving to these plain functions, which
        skips the bound-method creation.  ``pr``/``pw`` access the port
        through :meth:`~repro.tdf.ports.TdfIn.read` /
        :meth:`~repro.tdf.ports.TdfOut.write` and add only the pairing.
        """
        cluster_name = self.cluster_name
        signal_writes = self.signal_writes
        writes_get = signal_writes.get
        static_get = self.static_sites.get
        add_read_hit = self.read_hits.add
        undriven = self.undriven
        testbench_site = TESTBENCH_SITE
        # id(port) -> (anchor_model, anchor_line) for opaque uses, or
        # None when the anchor is the instrumented source line.
        anchor_cache: dict = {}

        def record_write(sig_name, token, var, model, line):
            writes = writes_get(sig_name)
            if writes is None:
                writes = signal_writes[sig_name] = _SignalWrites()
            writes.add(token, (var, model, line))

        def record_read(sig_name, token, port_name, reader, anchor_model,
                        anchor_line, is_undriven):
            if is_undriven:
                undriven[(reader, port_name)] = sig_name
                return
            if token < 0:  # reader-side delay token: not a definition
                return
            static = static_get(sig_name)
            if static is not None:
                driver, site = static
                if token < driver.delay:  # output-delay priming
                    return
            else:
                writes = writes_get(sig_name)
                if writes is None:
                    return
                site = writes.floor(token)
                if site is None:
                    return
            if site is testbench_site:
                add_read_hit((port_name, reader, None, anchor_model, anchor_line))
            else:
                add_read_hit((site[0], site[1], site[2], anchor_model, anchor_line))

        def pr(module, port, line, offset=0):
            value = port.read(offset)
            sig = port.signal
            key = id(port)
            anchor = anchor_cache.get(key, 0)
            if anchor == 0:
                if module.OPAQUE_USES and port.bind_site is not None:
                    anchor = (cluster_name, port.bind_site.lineno)
                else:
                    anchor = None
                anchor_cache[key] = anchor
            index = sig._cursors[key] + offset
            if anchor is None:
                record_read(sig.name, index, port.name, module.name,
                            module.name, line, sig.driver is None)
            else:
                record_read(sig.name, index, port.name, module.name,
                            anchor[0], anchor[1], sig.driver is None)
            return value

        def pw(module, port, line, value, offset=0):
            index = port.write(value, offset)
            record_write(port.signal.name, index, port.name, module.name, line)
            return index

        self.record_write = record_write
        self.record_read = record_read
        self.pr = pr
        self.pw = pw
