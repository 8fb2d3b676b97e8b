"""Joining dynamic events into exercised def-use pairs (paper §V).

"Each definition is mapped onto a corresponding use as soon as it is
encountered.  If there exists a use, but no definition, it is notified
as a warning."  Concretely:

* **local/member variables** — a use pairs with the most recent
  definition event of the same variable in the same model instance
  (member values persist, so the last def may be from an earlier
  activation — exactly the paper's ``m_mux_s`` cross-activation pairs);

* **ports** — a read of token ``i`` on a signal pairs with the write
  event of the greatest token index ``<= i`` on that signal (the
  floor accounts for the kernel's sample-and-hold repetition of
  unwritten samples).  The write event carries the definition anchor:
  a source line for instrumented models, the netlist bind line for
  redefining library elements, or the *testbench* marker, in which case
  the read pairs with the reader's own placeholder definition at its
  model start (Table I's ``(ip_signal_in, 1, TS, 3, TS)``);

* **initial/delay tokens** (negative index or below the priming count)
  pair with nothing — they are initial values, not definitions;

* a read on an **undriven signal** raises a
  :class:`~repro.instrument.probes.UseWithoutDefWarning` — the
  undefined-behaviour bug class both case studies of the paper exhibit.
"""

from __future__ import annotations

import bisect
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.associations import ExercisedPair
from .probes import ProbeRuntime, UseWithoutDefWarning, WriterKind

PairKey = Tuple[str, str, int, str, int]


@dataclass
class MatchResult:
    """Exercised pairs and diagnostics of one testcase run."""

    testcase: str
    pairs: Set[PairKey] = field(default_factory=set)
    #: ``port.full()``-style descriptions of use-without-def reads.
    use_without_def: List[str] = field(default_factory=list)

    def exercised(self) -> List[ExercisedPair]:
        """The pairs as :class:`ExercisedPair` records."""
        return [
            ExercisedPair(var, dm, dl, um, ul, self.testcase)
            for (var, dm, dl, um, ul) in sorted(self.pairs)
        ]


def match_events(
    probe: ProbeRuntime,
    testcase: str,
    model_start_lines: Dict[str, int],
    warn: bool = True,
    telemetry: Any = None,
) -> MatchResult:
    """Join the probe's event stream into exercised pairs.

    ``model_start_lines`` maps model name to the placeholder definition
    line (the ``def processing`` line).

    The join implementation follows from the buffer type — every path
    produces identical results:

    * in-memory tuple list → :func:`_match_batched`, a single pass
      (columnizing it for the vector kernel would cost an O(n) encode
      pass first);
    * streaming columnar store with numpy → the columnar array kernel
      (:mod:`repro.instrument.matchkernel`), whose columns are already
      packed;
    * streaming columnar store without numpy → :func:`_match_streaming`,
      two O(1)-memory passes.

    The path taken, events scanned, and any fallback reason land in
    ``instrument.match_*`` telemetry when a session is recording.
    """
    result = MatchResult(testcase=testcase)
    buf = probe._buf
    path, reason = _matcher_path(buf)
    started = time.perf_counter()
    scanned = 0
    if path == "vector":
        from .matchkernel import match_columns

        scanned = match_columns(buf.to_columns(), model_start_lines, result, warn)
    elif getattr(buf, "streaming", False):
        # Columnar store: two passes over the (re-iterable) stream;
        # decoded tuples are transient, so nothing here may key on
        # object identity or retain events.
        _match_streaming(buf, model_start_lines, result, warn)
    else:
        # In-memory buffer: already in sequence order, one pass.
        _match_batched(buf, model_start_lines, result, warn)
    _record_match_telemetry(
        telemetry, buf, path, reason, scanned, time.perf_counter() - started
    )
    return result


def _matcher_path(buf: Any) -> Tuple[str, Optional[str]]:
    """The path taken for ``buf`` plus a fallback reason.

    A non-``None`` reason is recorded whenever the scan path runs — it
    explains a low ``instrument.match_vector_share``.
    """
    from .matchkernel import HAVE_NUMPY

    if not HAVE_NUMPY:
        return "scan", "no_numpy"
    if getattr(buf, "streaming", False):
        return "vector", None
    return "scan", "memory_buffer"


def _record_match_telemetry(
    telemetry: Any,
    buf: Any,
    path: str,
    reason: Optional[str],
    scanned: int,
    seconds: float,
) -> None:
    tel = telemetry
    if tel is None:
        from ..obs import get_telemetry

        tel = get_telemetry()
    if not getattr(tel, "enabled", False):
        return
    if path == "scan":  # the vector kernel already counted its rows
        scanned = len(buf)
    metrics = tel.metrics
    metrics.counter("instrument.match_runs", path=path).inc()
    metrics.counter("instrument.match_events_scanned", path=path).inc(scanned)
    if reason is not None:
        metrics.counter("instrument.match_fallback", reason=reason).inc()
    metrics.histogram("instrument.match_seconds", path=path).observe(seconds)


def _match_batched(
    buf: List[tuple],
    model_start_lines: Dict[str, int],
    result: MatchResult,
    warn: bool,
) -> None:
    """Single-pass matcher over an in-memory probe buffer.

    Var events pair inline against the running last-def map, port
    writes build the per-signal index maps (later writes of the same
    token overwrite earlier ones, i.e. last by sequence wins), and port
    reads resolve after all writes.
    """
    last_def: Dict[Tuple[str, str], int] = {}
    pairs = result.pairs
    add_pair = pairs.add
    per_signal: Dict[str, Dict[int, tuple]] = {}
    reads: List[tuple] = []
    append_read = reads.append
    last_def_get = last_def.get
    # Use events are *shared per-site tuples* (the instrumenter
    # preallocates one tuple per def/use site), and the buffer keeps
    # every event alive for the duration of the match — so ``id(ev)``
    # is a stable, collision-free key.  Memoizing the unpacked site and
    # the def-lines already paired turns the steady state (the same
    # site firing once per period) into two int-keyed dict hits.
    use_memo: Dict[int, tuple] = {}
    use_memo_get = use_memo.get
    for ev in buf:
        tag = ev[0]
        if tag == 0:  # TAG_USE: (tag, var, model, line)
            site = use_memo_get(id(ev))
            if site is None:
                # ((model, var), var, use_line, paired def_lines)
                site = ((ev[2], ev[1]), ev[1], ev[3], set())
                use_memo[id(ev)] = site
            def_line = last_def_get(site[0])
            if def_line is not None:
                seen = site[3]
                if def_line not in seen:
                    seen.add(def_line)
                    model = site[0][0]
                    add_pair((site[1], model, def_line, model, site[2]))
        elif tag == 1:  # TAG_DEF: (tag, var, model, line)
            last_def[(ev[2], ev[1])] = ev[3]
        elif tag == 2:  # TAG_PW: (tag, signal, token_index, var, model, line, kind)
            sig_map = per_signal.get(ev[1])
            if sig_map is None:
                sig_map = per_signal[ev[1]] = {}
            sig_map[ev[2]] = ev
        else:
            append_read(ev)

    # Per signal: (index map, sorted indices or None, greatest index).
    # ``None`` marks a *dense* map — one write at every token index from
    # 0 to the maximum — where the floor lookup ("greatest write index
    # <= token") is a clamp plus one dict hit instead of a bisect.
    # Rate-1 signals written every period (the common case) are dense.
    sig_info: Dict[str, tuple] = {}
    for sig, idx_map in per_signal.items():
        indices = sorted(idx_map)
        last = indices[-1]
        dense = indices[0] == 0 and last == len(indices) - 1
        sig_info[sig] = (idx_map, None if dense else indices, last)
    sig_info_get = sig_info.get
    bisect_right = bisect.bisect_right
    testbench = WriterKind.TESTBENCH
    start_lines_get = model_start_lines.get
    warned: Set[str] = set()
    for ev in reads:
        # (tag, signal, token_index, port, reader_model,
        #  anchor_model, anchor_line, undriven)
        if ev[7]:  # undriven
            desc = f"{ev[4]}.{ev[3]}"
            if desc not in warned:
                warned.add(desc)
                result.use_without_def.append(desc)
                if warn:
                    warnings.warn(
                        f"use of port {desc} without any definition "
                        f"(signal {ev[1]!r} has no driver): undefined "
                        f"behaviour per the SystemC-AMS standard",
                        UseWithoutDefWarning,
                        stacklevel=2,
                    )
            continue
        token_index = ev[2]
        if token_index < 0:
            continue
        info = sig_info_get(ev[1])
        if info is None:
            continue
        idx_map, indices, last = info
        if indices is None:
            w = idx_map[token_index if token_index <= last else last]
        else:
            pos = bisect_right(indices, token_index) - 1
            if pos < 0:
                continue
            w = idx_map[indices[pos]]
        if w[6] is testbench:
            start = start_lines_get(ev[4])
            if start is None:
                continue
            add_pair((ev[3], ev[4], start, ev[5], ev[6]))
        else:
            add_pair((w[3], w[4], w[5], ev[5], ev[6]))


class _SignalWrites:
    """Run-length compressed per-signal write index for streaming.

    The batched matcher keeps one dict entry per written token; for a
    streamed million-event run that is exactly the O(events) footprint
    the store removes, so this index compresses the common shape —
    consecutive token indices written by the same source site — into
    ``(start, end, site)`` runs, with a small exception dict for
    out-of-order or re-written tokens.  Periodic single-site writers
    (every bundled system) collapse to a handful of runs regardless of
    simulation length.

    Last-by-sequence semantics are preserved structurally: a run entry
    at token ``t`` is only ever created while the frontier (greatest
    token seen) is below ``t``, whereas an exception at ``t`` is
    created at or behind the frontier — i.e. strictly later in the
    stream — so on a floor query an exception shadows a run entry at
    the same token, and dict assignment keeps the last exception.
    """

    __slots__ = (
        "run_starts", "run_ends", "run_sites",
        "exceptions", "_exc_sorted", "_exc_dirty",
    )

    def __init__(self) -> None:
        self.run_starts: List[int] = []
        self.run_ends: List[int] = []
        self.run_sites: List[tuple] = []
        self.exceptions: Dict[int, tuple] = {}
        self._exc_sorted: List[int] = []
        self._exc_dirty = False

    def add(self, token: int, site: tuple) -> None:
        ends = self.run_ends
        if ends:
            frontier = ends[-1]
            if token == frontier + 1 and site == self.run_sites[-1]:
                ends[-1] = token
                return
            if token <= frontier:
                self.exceptions[token] = site
                self._exc_dirty = True
                return
        self.run_starts.append(token)
        ends.append(token)
        self.run_sites.append(site)

    def floor(self, token: int) -> Optional[tuple]:
        """Site of the last-by-seq write at the greatest index <= token."""
        best_token = -1
        best: Optional[tuple] = None
        pos = bisect.bisect_right(self.run_starts, token) - 1
        if pos >= 0:
            best_token = min(token, self.run_ends[pos])
            best = self.run_sites[pos]
        if self.exceptions:
            if self._exc_dirty:
                self._exc_sorted = sorted(self.exceptions)
                self._exc_dirty = False
            epos = bisect.bisect_right(self._exc_sorted, token) - 1
            if epos >= 0:
                exc_token = self._exc_sorted[epos]
                if exc_token >= best_token:  # >=: exceptions are later-seq
                    return self.exceptions[exc_token]
        return best


def _match_streaming(
    buf,
    model_start_lines: Dict[str, int],
    result: MatchResult,
    warn: bool,
) -> None:
    """Two-pass matcher over a streaming (columnar) probe store.

    Pass 1 pairs var events inline (they only depend on earlier events)
    and folds port writes into :class:`_SignalWrites` indexes; pass 2
    re-iterates the stream and resolves port reads against the complete
    write index — the same all-writes-before-any-read order the batched
    matcher imposes by collecting reads into a list.  Produces exactly
    the pair set of :func:`_match_batched` without ever holding the
    event stream in memory.
    """
    last_def: Dict[Tuple[str, str], int] = {}
    last_def_get = last_def.get
    add_pair = result.pairs.add
    per_signal: Dict[str, _SignalWrites] = {}
    for ev in buf:
        tag = ev[0]
        if tag == 0:  # TAG_USE: (tag, var, model, line)
            def_line = last_def_get((ev[2], ev[1]))
            if def_line is not None:
                add_pair((ev[1], ev[2], def_line, ev[2], ev[3]))
        elif tag == 1:  # TAG_DEF: (tag, var, model, line)
            last_def[(ev[2], ev[1])] = ev[3]
        elif tag == 2:  # TAG_PW: (tag, signal, token_index, var, model, line, kind)
            writes = per_signal.get(ev[1])
            if writes is None:
                writes = per_signal[ev[1]] = _SignalWrites()
            writes.add(ev[2], (ev[3], ev[4], ev[5], ev[6]))

    per_signal_get = per_signal.get
    testbench = WriterKind.TESTBENCH
    start_lines_get = model_start_lines.get
    warned: Set[str] = set()
    for ev in buf:
        # (tag, signal, token_index, port, reader_model,
        #  anchor_model, anchor_line, undriven)
        if ev[0] != 3:
            continue
        if ev[7]:  # undriven
            desc = f"{ev[4]}.{ev[3]}"
            if desc not in warned:
                warned.add(desc)
                result.use_without_def.append(desc)
                if warn:
                    warnings.warn(
                        f"use of port {desc} without any definition "
                        f"(signal {ev[1]!r} has no driver): undefined "
                        f"behaviour per the SystemC-AMS standard",
                        UseWithoutDefWarning,
                        stacklevel=2,
                    )
            continue
        if ev[2] < 0:
            continue
        writes = per_signal_get(ev[1])
        if writes is None:
            continue
        site = writes.floor(ev[2])
        if site is None:
            continue
        if site[3] is testbench:
            start = start_lines_get(ev[4])
            if start is None:
                continue
            add_pair((ev[3], ev[4], start, ev[5], ev[6]))
        else:
            add_pair((site[0], site[1], site[2], ev[5], ev[6]))
