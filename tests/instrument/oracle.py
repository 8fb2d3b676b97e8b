"""Reference post-hoc join of a §V event stream (test oracle).

The pairer in :class:`repro.instrument.probes.ProbeRuntime` maps each
use to its definition while the simulation runs.  This module keeps the
join it replaced: record every event, then pair uses against the
running last def and floor-join every port read against *all* writes
of the run.  On causal streams — every write of token ``j`` on a signal
precedes any read of a token ``>= j`` on it — both give the same pairs.

Events are flat tuples:

* ``(USE | DEF, var, model, line)``;
* ``(PW, signal, token, var, model, line, kind)``;
* ``(PR, signal, token, port, reader_model, anchor_model, anchor_line,
  undriven)``.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Set, Tuple

from repro.instrument.matching import MatchResult, match_events
from repro.instrument.probes import ProbeRuntime, WriterKind

USE, DEF, PW, PR = range(4)


def replay(events: Iterable[tuple], cluster_name: str = "top") -> ProbeRuntime:
    """Feed ``events`` through the pairer's record entry points.

    Defs and uses do what the instrumented code does (a last-def store,
    a use-hit add); port events go through ``record_write`` /
    ``record_read``.
    """
    probe = ProbeRuntime(cluster_name)
    last_def = probe.last_def
    for ev in events:
        tag = ev[0]
        if tag == USE:
            _, var, model, line = ev
            probe.use_hits.add(((var, model, line), last_def.get((model, var))))
        elif tag == DEF:
            _, var, model, line = ev
            last_def[(model, var)] = line
        elif tag == PW:
            probe.record_write(*ev[1:])
        else:
            probe.record_read(*ev[1:])
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
    overwrites an earlier one); port reads resolve after all writes.
    """
    result = MatchResult(testcase="tc")
    pairs = result.pairs
    last_def: Dict[Tuple[str, str], int] = {}
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
        elif tag == PW:
            per_signal.setdefault(ev[1], {})[ev[2]] = ev
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
        if token < 0 or sig not in per_signal:
            continue
        tokens = sorted_tokens[sig]
        pos = bisect.bisect_right(tokens, token) - 1
        if pos < 0:
            continue
        write = per_signal[sig][tokens[pos]]
        if write[6] is WriterKind.TESTBENCH:
            start = model_start_lines.get(reader)
            if start is None:
                continue
            pairs.add((port, reader, start, anchor_model, anchor_line))
        else:
            pairs.add((write[3], write[4], write[5], anchor_model, anchor_line))
    return result
