"""Runtime probes: the instrumented-code logging API.

The paper's dynamic analysis inserts a print instruction before every
definition/use so that executing the testsuite produces logs of the
exercised data flow (§V).  Here every "print instruction" appends one
flat tuple to the :class:`ProbeRuntime` buffer, on both engines:

* ``(TAG_USE | TAG_DEF, var, model, line)`` — a local/member use/def
  executed at a source line (the instrumenter emits these as
  preallocated per-site tuples);
* ``(TAG_PW, signal, token_index, var, model, line, kind)`` and
  ``(TAG_PR, signal, token_index, port, reader_model, anchor_model,
  anchor_line, undriven)`` — port writes/reads via the ``pw``/``pr``
  probes, which record the global token index on the port's signal so
  cross-model flows can be joined exactly (see
  :mod:`repro.instrument.matching`).

An event's sequence number is its buffer position + 1.  The runtime
also receives *generic* writes from uninstrumented modules (testbench
sources, redefining library elements) via port hooks installed by the
runner.
"""

from __future__ import annotations

import enum
import io
from operator import itemgetter
from typing import Any, Optional, TextIO, Tuple

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


#: Tags of the flat event buffer (first tuple element).
#: Kept small ints so tag dispatch in the matcher is two comparisons.
TAG_USE = 0
TAG_DEF = 1
TAG_PW = 2
TAG_PR = 3

_tag_of = itemgetter(0)


class ProbeRuntime:
    """Collects all dynamic events of one testcase execution.

    Every probe call appends one plain tuple to a single flat buffer
    (``_buf``); the sequence number *is* the buffer position + 1, so the
    global event order is the buffer order.  ``store`` (e.g.
    :class:`repro.obs.store.ColumnarProbeStore`) stands in for the plain
    list: the probe closures only call ``.append`` on it, the matcher
    only iterates it.
    """

    def __init__(self, cluster_name: str, store: Optional[Any] = None) -> None:
        self.cluster_name = cluster_name
        self._buf: Any = [] if store is None else store
        self._install()

    def clear(self) -> None:
        """Drop all recorded events (between testcases)."""
        self._buf.clear()  # in place: installed closures hold a reference

    def event_counts(self) -> Tuple[int, int, int]:
        """(var, write, read) event counts."""
        counts = getattr(self._buf, "event_counts", None)
        if counts is not None:  # columnar store tracks tags at flush time
            return counts()
        # One C-level pass (map + list.count) instead of a Python loop.
        tags = list(map(_tag_of, self._buf))
        nw = tags.count(TAG_PW)
        nr = tags.count(TAG_PR)
        return len(tags) - nw - nr, nw, nr

    def _install(self) -> None:
        """Install the ``pr``/``pw``/``generic_write`` buffer closures.

        The instrumented code calls ``__dft_probe__.pr(self, ...)`` — an
        instance-dict lookup resolving to these plain functions, which
        skips the bound-method creation.  ``pr``/``pw`` inline the port
        fast paths but keep every user-visible validation and hook of
        :meth:`~repro.tdf.ports.TdfIn.read` /
        :meth:`~repro.tdf.ports.TdfOut.write`.
        """
        buf = self._buf
        append = buf.append
        cluster_name = self.cluster_name
        # id(port) -> (anchor_model, anchor_line) for opaque uses, or
        # None when the anchor is the instrumented source line.
        anchor_cache: dict = {}

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

        self.pr = pr
        self.pw = pw
        self.generic_write = generic_write

    # -- log dump (the paper's textual instrumentation log) -------------------------

    def write_log(self, stream: TextIO) -> None:
        """Dump all events as a text log (one line per event).

        This mirrors the paper's print-based instrumentation output; the
        in-memory events are authoritative, the log is for humans and
        tests.
        """
        write = stream.write
        for seq, ev in enumerate(self._buf, 1):
            tag = ev[0]
            if tag <= TAG_DEF:
                kind = "DEF" if tag == TAG_DEF else "USE"
                write(f"{seq}\t{kind}\t{ev[1]}\t{ev[2]}:{ev[3]}\t\n")
            elif tag == TAG_PW:
                write(
                    f"{seq}\tPW\t{ev[3]}\t{ev[4]}:{ev[5]}\t"
                    f"{ev[1]}[{ev[2]}] {ev[6].value}\n"
                )
            else:
                write(f"{seq}\tPR\t{ev[3]}\t{ev[5]}:{ev[6]}\t{ev[1]}[{ev[2]}]\n")

    def log_text(self) -> str:
        """The event log as a string."""
        buf = io.StringIO()
        self.write_log(buf)
        return buf.getvalue()
