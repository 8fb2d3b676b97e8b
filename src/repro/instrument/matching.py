"""Exercised def-use pairs of one testcase (paper §V).

"Each definition is mapped onto a corresponding use as soon as it is
encountered.  If there exists a use, but no definition, it is notified
as a warning."  :class:`~repro.instrument.probes.ProbeRuntime` does the
mapping while the simulation runs; :func:`match_events` finalizes it:

* **local/member variables** — a use pairs with the most recent
  definition of the same variable in the same model instance (member
  values persist, so the last def may be from an earlier activation —
  exactly the paper's ``m_mux_s`` cross-activation pairs);

* **ports** — a read of token ``i`` on a signal an instrumented model
  drives pairs with the last write of the greatest token index
  ``<= i`` on that signal (the floor accounts for the kernel's
  sample-and-hold repetition of unwritten samples), anchored at the
  write's source line.  Every token of a signal an uninstrumented
  module drives is defined at one static site: the netlist bind line
  for redefining library elements, or the *testbench* marker, in which
  case the read pairs with the reader's own placeholder definition at
  its model start (Table I's ``(ip_signal_in, 1, TS, 3, TS)``);

* **initial/delay tokens** (negative index or below the priming count)
  pair with nothing — they are initial values, not definitions;

* a read on an **undriven signal** raises a
  :class:`~repro.instrument.probes.UseWithoutDefWarning` — the
  undefined-behaviour bug class both case studies of the paper exhibit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..core.associations import ExercisedPair
from .probes import ProbeRuntime, UseWithoutDefWarning

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
) -> MatchResult:
    """The exercised pairs the probe paired during the run.

    ``model_start_lines`` maps model name to the placeholder definition
    line (the ``def processing`` line) that testbench tokens pair with.
    Issues one :class:`UseWithoutDefWarning` per undriven port read
    when ``warn`` is set.
    """
    result = MatchResult(testcase=testcase)
    pairs = result.pairs
    for (var, model, use_line), def_line in probe.use_hits:
        if def_line is not None:
            pairs.add((var, model, def_line, model, use_line))
    start_lines_get = model_start_lines.get
    for hit in probe.read_hits:
        if hit[2] is None:  # testbench token: the reader's placeholder def
            start = start_lines_get(hit[1])
            if start is None:
                continue
            hit = (hit[0], hit[1], start, hit[3], hit[4])
        pairs.add(hit)
    for (model, port), signal in probe.undriven.items():
        desc = f"{model}.{port}"
        result.use_without_def.append(desc)
        if warn:
            warnings.warn(
                f"use of port {desc} without any definition "
                f"(signal {signal!r} has no driver): undefined "
                f"behaviour per the SystemC-AMS standard",
                UseWithoutDefWarning,
                stacklevel=2,
            )
    return result
