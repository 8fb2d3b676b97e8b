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
* **ports** — the ``pw``/``generic_write`` probes fold every token
  write into the signal's :class:`_SignalWrites` index, and ``pr``
  pairs each read with the floor of the writes recorded so far,
  adding the resolved pair to :attr:`ProbeRuntime.read_hits`;
* reads of **undriven** signals are noted once per port, in
  first-seen order (:attr:`ProbeRuntime.undriven`).

:func:`repro.instrument.matching.match_events` turns the hits into
exercised pairs.  The runtime's state is O(def/use sites and write
runs), not O(events).
"""

from __future__ import annotations

import bisect
import enum
from typing import Dict, List, Optional, Set, Tuple

from ..tdf.errors import PortAccessError


class UseWithoutDefWarning(UserWarning):
    """A port was used although its signal is never defined.

    Undefined behaviour per the SystemC-AMS standard; the paper found
    exactly this bug class in both case-study VPs ("the ports were not
    defined, but still used in a different TDF model", §VI-B).
    """


class WriterKind(enum.Enum):
    """Who produced a token (decides how a read is paired)."""

    MODEL = "model"          #: instrumented model write (def anchored in source)
    REDEF = "redef"          #: redefining library element (netlist anchor)
    TESTBENCH = "testbench"  #: testbench stimulus (pairs to placeholder defs)


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

    The pairing of reads relies on one condition that every TDF
    schedule meets: *every write of token j on a signal is recorded
    before any read of a token >= j on that signal* (a reader fires
    after the writers of the tokens it consumes; the block engine emits
    hoisted writes at their canonical positions).  Under it the floor
    of the writes seen so far is the floor of all writes of the run.

    State, all of it bounded by sites and write runs:

    * :attr:`last_def` — ``(model, var)`` -> line of the latest def;
    * :attr:`use_hits` — ``((var, model, use_line), def_line)``, with
      ``def_line`` ``None`` for a use before any def;
    * :attr:`signal_writes` — signal name -> :class:`_SignalWrites`;
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
        self.signal_writes: Dict[str, _SignalWrites] = {}
        self.read_hits: Set[tuple] = set()
        self.undriven: Dict[Tuple[str, str], str] = {}
        self._install()

    def _install(self) -> None:
        """Install the ``pr``/``pw``/``generic_write`` closures and the
        ``record_write``/``record_read`` entry points they pair through.

        The instrumented code calls ``__dft_probe__.pr(self, ...)`` — an
        instance-dict lookup resolving to these plain functions, which
        skips the bound-method creation.  ``pr``/``pw`` inline the port
        fast paths but keep every user-visible validation and hook of
        :meth:`~repro.tdf.ports.TdfIn.read` /
        :meth:`~repro.tdf.ports.TdfOut.write`.
        """
        cluster_name = self.cluster_name
        signal_writes = self.signal_writes
        writes_get = signal_writes.get
        add_read_hit = self.read_hits.add
        undriven = self.undriven
        testbench = WriterKind.TESTBENCH
        testbench_site = TESTBENCH_SITE
        model_kind = WriterKind.MODEL
        # id(port) -> (anchor_model, anchor_line) for opaque uses, or
        # None when the anchor is the instrumented source line.
        anchor_cache: dict = {}

        def record_write(sig_name, token, var, model, line, kind):
            writes = writes_get(sig_name)
            if writes is None:
                writes = signal_writes[sig_name] = _SignalWrites()
            writes.add(
                token, testbench_site if kind is testbench else (var, model, line)
            )

        def record_read(sig_name, token, port_name, reader, anchor_model,
                        anchor_line, is_undriven):
            if is_undriven:
                undriven[(reader, port_name)] = sig_name
                return
            if token < 0:  # initial/delay token: not a definition
                return
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
            sig = port.signal
            if sig is None:
                raise PortAccessError(f"read from unbound port {port.full_name()}")
            if not port._in_activation:
                raise PortAccessError(
                    f"port {port.full_name()} read outside of processing()"
                )
            if offset and not 0 <= offset < port.rate:
                raise PortAccessError(
                    f"sample offset {offset} out of range for port "
                    f"{port.full_name()} with rate {port.rate}"
                )
            index = sig._cursors[id(port)] + offset
            driver = sig.driver
            if driver is None:
                value = sig.initial_value
            else:
                # Inline _value_at's in-buffer fast path; delegate the
                # delay region and bounds diagnostics to the slow path.
                i = index - sig._base_index
                if i >= 0:
                    try:
                        value = sig._tokens[i]
                    except IndexError:
                        value = sig._value_at(index, port)
                else:
                    value = sig._value_at(index, port)
            hooks = port._read_hooks
            if hooks:
                for hook in hooks:
                    hook(port, index, value, offset)
            key = id(port)
            anchor = anchor_cache.get(key, 0)
            if anchor == 0:
                if module.OPAQUE_USES and port.bind_site is not None:
                    anchor = (cluster_name, port.bind_site.lineno)
                else:
                    anchor = None
                anchor_cache[key] = anchor
            if anchor is None:
                record_read(sig.name, index, port.name, module.name,
                            module.name, line, driver is None)
            else:
                record_read(sig.name, index, port.name, module.name,
                            anchor[0], anchor[1], driver is None)
            return value

        def pw(module, port, line, value, offset=0):
            sig = port.signal
            if sig is None:
                raise PortAccessError(f"write to unbound port {port.full_name()}")
            if not port._in_activation:
                raise PortAccessError(
                    f"port {port.full_name()} written outside of processing()"
                )
            if offset and not 0 <= offset < port.rate:
                raise PortAccessError(
                    f"sample offset {offset} out of range for port "
                    f"{port.full_name()} with rate {port.rate}"
                )
            index = port._flushed + offset
            port._pending.append((offset, value))
            hooks = port._write_hooks
            if hooks:
                for hook in hooks:
                    hook(port, index, value, offset)
            record_write(sig.name, index, port.name, module.name, line, model_kind)
            return index

        def generic_write(port, token_index, var, model, line, kind):
            record_write(port.signal.name, token_index, var, model, line, kind)

        self.record_write = record_write
        self.record_read = record_read
        self.pr = pr
        self.pw = pw
        self.generic_write = generic_write
