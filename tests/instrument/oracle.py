"""Reference post-hoc join of a §V event stream (test oracle).

The pairer in :class:`repro.instrument.probes.ProbeRuntime` maps each
use to its definition while the simulation runs.  This module keeps the
join it replaced: record every event, then pair uses against the
running last def and join every port read against *all* writes of the
run.  On causal streams — every write of token ``j`` on a signal
precedes any read of a token ``>= j`` on it — both give the same pairs.

A signal has one driver, so its tokens are defined one of two ways: by
instrumented-model writes (``PW`` events, floor-joined), or at one
static site declared before the run (a ``SITE`` event, as the runner
registers for testbench sources and redefining library elements), which
defines every token from the driver's output delay on.

Events are flat tuples:

* ``(USE | DEF, var, model, line)``;
* ``(SITE, signal, delay, site)`` with ``site`` either
  :data:`~repro.instrument.probes.TESTBENCH_SITE` or ``(var, model,
  line)``;
* ``(PW, signal, token, var, model, line)``;
* ``(PR, signal, token, port, reader_model, anchor_model, anchor_line,
  undriven)``.
"""

from __future__ import annotations

import bisect
from types import SimpleNamespace
from typing import Dict, Iterable, List, Set, Tuple

from repro.instrument.matching import MatchResult, match_events
from repro.instrument.probes import TESTBENCH_SITE, ProbeRuntime

USE, DEF, SITE, PW, PR = range(5)


class _StandInPort:
    """What an accessor touches of a port: its name, signal and cursor,
    and a ``read``/``write`` that returns the replayed token."""

    def __init__(self, name: str, signal: str, driven: bool) -> None:
        self.name = name
        self.signal = SimpleNamespace(name=signal, driver=self if driven else None)
        self._cursor = 0

    def read(self, offset: int = 0) -> None:
        return None

    def write(self, value, offset: int = 0) -> int:
        return self._cursor + offset


def replay(events: Iterable[tuple], cluster_name: str = "top") -> ProbeRuntime:
    """Feed ``events`` through the pairer's production accessors.

    Defs and uses do what the instrumented code does (a last-def store,
    a use-hit add); a static site is registered as the runner does, with
    a stand-in for the driver port; port events call the accessor of
    their site (:meth:`ProbeRuntime.reader` / :meth:`ProbeRuntime.writer`,
    built on first use over a stand-in port) with the stand-in's cursor
    on the event's token.
    """
    probe = ProbeRuntime(cluster_name)
    last_def = probe.last_def
    accessors: Dict[tuple, tuple] = {}
    for ev in events:
        tag = ev[0]
        if tag == USE:
            _, var, model, line = ev
            probe.use_hits.add(((var, model, line), last_def.get((model, var))))
        elif tag == DEF:
            _, var, model, line = ev
            last_def[(model, var)] = line
        elif tag == SITE:
            _, sig, delay, site = ev
            probe.static_sites[sig] = (SimpleNamespace(delay=delay), site)
        elif tag == PW:
            _, sig, token, var, model, line = ev
            key = (PW, sig, var, model, line)
            if key not in accessors:
                port = _StandInPort(var, sig, driven=True)
                accessors[key] = (port, probe.writer(port, (var, model, line)))
            port, write = accessors[key]
            port._cursor = token
            write(None)
        else:
            _, sig, token, name, reader, anchor_model, anchor_line, undriven = ev
            key = (PR, sig, name, reader, anchor_model, anchor_line, undriven)
            if key not in accessors:
                port = _StandInPort(name, sig, driven=not undriven)
                accessors[key] = (
                    port,
                    probe.reader(port, reader, (anchor_model, anchor_line)),
                )
            port, read = accessors[key]
            port._cursor = token
            read()
    return probe


def pairer_match(
    events: Iterable[tuple],
    model_start_lines: Dict[str, int],
    warn: bool = False,
) -> MatchResult:
    """The online pairer's result for ``events``."""
    return match_events(replay(events), "tc", model_start_lines, warn=warn)


def oracle_match(
    events: List[tuple],
    model_start_lines: Dict[str, int],
) -> MatchResult:
    """The post-hoc join's result for ``events``.

    Var events pair inline against the running last-def map; port
    writes build per-signal token maps (a later write of the same token
    overwrites an earlier one); port reads resolve after all writes,
    against the static site if their signal has one.
    """
    result = MatchResult(testcase="tc")
    pairs = result.pairs
    last_def: Dict[Tuple[str, str], int] = {}
    static: Dict[str, Tuple[int, tuple]] = {}
    per_signal: Dict[str, Dict[int, tuple]] = {}
    reads: List[tuple] = []
    for ev in events:
        tag = ev[0]
        if tag == USE:
            def_line = last_def.get((ev[2], ev[1]))
            if def_line is not None:
                pairs.add((ev[1], ev[2], def_line, ev[2], ev[3]))
        elif tag == DEF:
            last_def[(ev[2], ev[1])] = ev[3]
        elif tag == SITE:
            static[ev[1]] = (ev[2], ev[3])
        elif tag == PW:
            per_signal.setdefault(ev[1], {})[ev[2]] = ev[3:]
        else:
            reads.append(ev)

    sorted_tokens = {sig: sorted(writes) for sig, writes in per_signal.items()}
    warned: Set[str] = set()
    for ev in reads:
        _, sig, token, port, reader, anchor_model, anchor_line, undriven = ev
        if undriven:
            desc = f"{reader}.{port}"
            if desc not in warned:
                warned.add(desc)
                result.use_without_def.append(desc)
            continue
        if token < 0:
            continue
        if sig in static:
            delay, site = static[sig]
            if token < delay:
                continue
        elif sig in per_signal:
            tokens = sorted_tokens[sig]
            pos = bisect.bisect_right(tokens, token) - 1
            if pos < 0:
                continue
            site = per_signal[sig][tokens[pos]]
        else:
            continue
        if site == TESTBENCH_SITE:
            start = model_start_lines.get(reader)
            if start is None:
                continue
            pairs.add((port, reader, start, anchor_model, anchor_line))
        else:
            pairs.add((site[0], site[1], site[2], anchor_model, anchor_line))
    return result
