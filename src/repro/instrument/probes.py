"""Runtime probes: the instrumented-code logging API.

The paper's dynamic analysis inserts a print instruction before every
definition/use so that executing the testsuite produces logs of the
exercised data flow (§V).  Here the "print instructions" are calls into
a :class:`ProbeRuntime` whose short methods (``u``, ``d``, ``pr``,
``pw``) the instrumenter splices into the model's ``processing()`` AST:

* ``u`` / ``d`` — a local/member use/def was executed at a source line;
* ``pr`` / ``pw`` — a port read/write, which additionally records the
  global token index on the port's signal so cross-model flows can be
  joined exactly (see :mod:`repro.instrument.matching`).

The runtime also receives *generic* events from uninstrumented modules
(testbench sources, redefining library elements) via port hooks
installed by the runner.
"""

from __future__ import annotations

import enum
import io
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, List, Optional, TextIO, Tuple

from ..tdf.errors import PortAccessError
from ..tdf.ports import TdfIn, TdfOut


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


@dataclass(slots=True)
class VarEvent:
    """A local/member def or use executed by instrumented code."""

    is_def: bool
    var: str
    model: str
    line: int
    seq: int


@dataclass(slots=True)
class PortWriteEvent:
    """A token written to a signal (a port-level definition)."""

    signal: str
    token_index: int
    var: str
    model: str
    line: int
    kind: WriterKind
    seq: int


@dataclass(slots=True)
class PortReadEvent:
    """A token consumed from a signal (a port-level use)."""

    signal: str
    token_index: int
    port: str              #: reader port name (for placeholder pairing)
    reader_model: str      #: reader module name
    anchor_model: str      #: use anchor: model name or cluster name
    anchor_line: int
    undriven: bool         #: True when the signal has no driver at all
    seq: int


#: Tags of the batched-mode flat event buffer (first tuple element).
#: Kept small ints so tag dispatch in the matcher is two comparisons.
TAG_USE = 0
TAG_DEF = 1
TAG_PW = 2
TAG_PR = 3

_tag_of = itemgetter(0)


class ProbeRuntime:
    """Collects all dynamic events of one testcase execution.

    Two recording modes:

    * **per-event** (default): every probe call appends a dataclass
      event to ``var_events`` / ``port_writes`` / ``port_reads``, with a
      shared sequence counter.  This is the mode the interpreter engine
      uses and the reference for equivalence.
    * **batched** (``batched=True``, used by the compiled block engine):
      every probe call appends one plain tuple to a single flat buffer;
      the sequence number *is* the buffer position + 1, so the global
      event order is identical by construction.  The dataclass views are
      materialised lazily on first access (event matching consumes the
      raw buffer directly and never pays for materialisation).
    """

    def __init__(
        self,
        cluster_name: str,
        batched: bool = False,
        store: Optional[Any] = None,
    ) -> None:
        self.cluster_name = cluster_name
        self.batched = batched or store is not None
        self._seq = 0
        if self.batched:
            # ``store`` (e.g. repro.obs.store.ColumnarProbeStore) stands
            # in for the flat list buffer: the closures below only call
            # ``.append`` on it, the matcher only iterates it.
            self._buf: Optional[Any] = [] if store is None else store
            self._mat_len = -1
            self._mat: Tuple[list, list, list] = ([], [], [])
            self._install_batched()
        else:
            self._buf = None
            self.var_events: List[VarEvent] = []
            self.port_writes: List[PortWriteEvent] = []
            self.port_reads: List[PortReadEvent] = []

    def _next(self) -> int:
        self._seq += 1
        return self._seq

    def clear(self) -> None:
        """Drop all recorded events (between testcases)."""
        if self._buf is not None:
            self._buf.clear()  # in place: installed closures hold a reference
            self._mat_len = -1
        else:
            self.var_events.clear()
            self.port_writes.clear()
            self.port_reads.clear()
            self._seq = 0

    # -- batched mode ---------------------------------------------------------

    def __getattr__(self, name: str):
        # Only reached in batched mode (per-event instances assign the
        # lists in __init__): materialise the dataclass views on demand.
        if name in ("var_events", "port_writes", "port_reads"):
            mat = self._materialize()
            return mat[("var_events", "port_writes", "port_reads").index(name)]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _materialize(self) -> Tuple[list, list, list]:
        buf = self._buf
        assert buf is not None
        if self._mat_len == len(buf):
            return self._mat
        var_events: List[VarEvent] = []
        port_writes: List[PortWriteEvent] = []
        port_reads: List[PortReadEvent] = []
        for pos, ev in enumerate(buf):
            tag = ev[0]
            if tag <= TAG_DEF:
                var_events.append(VarEvent(tag == TAG_DEF, ev[1], ev[2], ev[3], pos + 1))
            elif tag == TAG_PW:
                port_writes.append(
                    PortWriteEvent(ev[1], ev[2], ev[3], ev[4], ev[5], ev[6], pos + 1)
                )
            else:
                port_reads.append(
                    PortReadEvent(
                        ev[1], ev[2], ev[3], ev[4], ev[5], ev[6], ev[7], pos + 1
                    )
                )
        self._mat = (var_events, port_writes, port_reads)
        self._mat_len = len(buf)
        return self._mat

    def event_counts(self) -> Tuple[int, int, int]:
        """(var, write, read) event counts without materialising."""
        if self._buf is None:
            return len(self.var_events), len(self.port_writes), len(self.port_reads)
        counts = getattr(self._buf, "event_counts", None)
        if counts is not None:  # columnar store tracks tags at flush time
            return counts()
        # One C-level pass (map + list.count) instead of a Python loop.
        tags = list(map(_tag_of, self._buf))
        nw = tags.count(TAG_PW)
        nr = tags.count(TAG_PR)
        return len(tags) - nw - nr, nw, nr

    def _install_batched(self) -> None:
        """Shadow the probe methods with flat-buffer closures.

        The instrumented code calls ``__dft_probe__.u(self, ...)`` — an
        instance-dict lookup resolving to these plain functions, which
        skips both the bound-method creation and the dataclass
        construction of the per-event path.  ``pr``/``pw`` inline the
        port fast paths but keep every user-visible validation and hook
        of :meth:`TdfIn.read` / :meth:`TdfOut.write`.
        """
        buf = self._buf
        assert buf is not None
        append = buf.append
        cluster_name = self.cluster_name
        # id(port) -> (anchor_model, anchor_line) for opaque uses, or
        # None when the anchor is the instrumented source line.
        anchor_cache: dict = {}

        def u(module, var, line, value):
            append((TAG_USE, var, module.name, line))
            return value

        def d(module, var, line):
            append((TAG_DEF, var, module.name, line))

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
                append(
                    (TAG_PR, sig.name, index, port.name, module.name,
                     module.name, line, driver is None)
                )
            else:
                append(
                    (TAG_PR, sig.name, index, port.name, module.name,
                     anchor[0], anchor[1], driver is None)
                )
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
            append((TAG_PW, sig.name, index, port.name, module.name, line,
                    WriterKind.MODEL))
            return index

        def generic_write(port, token_index, var, model, line, kind):
            append((TAG_PW, port.signal.name, token_index, var, model, line, kind))

        self.u = u
        self.d = d
        self.pr = pr
        self.pw = pw
        self.generic_write = generic_write

    # -- instrumented-code API (names kept short on purpose) -----------------

    def u(self, module: Any, var: str, line: int, value: Any) -> Any:
        """Record a local/member use; returns ``value`` unchanged."""
        self._seq += 1
        self.var_events.append(VarEvent(False, var, module.name, line, self._seq))
        return value

    def d(self, module: Any, var: str, line: int) -> None:
        """Record a local/member definition."""
        self._seq += 1
        self.var_events.append(VarEvent(True, var, module.name, line, self._seq))

    def pr(self, module: Any, port: TdfIn, line: int, offset: int = 0) -> Any:
        """Perform an instrumented port read and record the use."""
        index = port.global_index(offset)
        value = port.read(offset)
        assert port.signal is not None
        if module.OPAQUE_USES and port.bind_site is not None:
            anchor_model = self.cluster_name
            anchor_line = port.bind_site.lineno
        else:
            anchor_model = module.name
            anchor_line = line
        self.port_reads.append(
            PortReadEvent(
                signal=port.signal.name,
                token_index=index,
                port=port.name,
                reader_model=module.name,
                anchor_model=anchor_model,
                anchor_line=anchor_line,
                undriven=port.signal.driver is None,
                seq=self._next(),
            )
        )
        return value

    def pw(self, module: Any, port: TdfOut, line: int, value: Any, offset: int = 0) -> int:
        """Perform an instrumented port write and record the definition."""
        index = port.write(value, offset)
        assert port.signal is not None
        self.port_writes.append(
            PortWriteEvent(
                signal=port.signal.name,
                token_index=index,
                var=port.name,
                model=module.name,
                line=line,
                kind=WriterKind.MODEL,
                seq=self._next(),
            )
        )
        return index

    # -- generic (hook-based) events ---------------------------------------------

    def generic_write(
        self,
        port: TdfOut,
        token_index: int,
        var: str,
        model: str,
        line: int,
        kind: WriterKind,
    ) -> None:
        """Record a write from an uninstrumented module (via port hook)."""
        assert port.signal is not None
        self.port_writes.append(
            PortWriteEvent(
                signal=port.signal.name,
                token_index=token_index,
                var=var,
                model=model,
                line=line,
                kind=kind,
                seq=self._next(),
            )
        )

    # -- log dump (the paper's textual instrumentation log) -------------------------

    def write_log(self, stream: TextIO) -> None:
        """Dump all events as a text log (one line per event).

        This mirrors the paper's print-based instrumentation output; the
        in-memory events above are authoritative, the log is for humans
        and tests.
        """
        rows: List[tuple] = []
        for ev in self.var_events:
            rows.append((ev.seq, "DEF" if ev.is_def else "USE", ev.var, ev.model, ev.line, ""))
        for w in self.port_writes:
            rows.append((w.seq, "PW", w.var, w.model, w.line, f"{w.signal}[{w.token_index}] {w.kind.value}"))
        for r in self.port_reads:
            rows.append((r.seq, "PR", r.port, r.anchor_model, r.anchor_line, f"{r.signal}[{r.token_index}]"))
        for seq, tag, var, model, line, extra in sorted(rows):
            stream.write(f"{seq}\t{tag}\t{var}\t{model}:{line}\t{extra}\n")

    def log_text(self) -> str:
        """The event log as a string."""
        buf = io.StringIO()
        self.write_log(buf)
        return buf.getvalue()
