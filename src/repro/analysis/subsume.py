"""Association subsumption analysis (Chaim et al.-style redundancy pass).

Many def-use associations are redundant test requirements: whenever one
is exercised, another is necessarily exercised too.  Covering

``(target, 65, 66)`` in ``mode_ctrl`` for instance forces every
execution through the definition at 65 and straight into 66, which may
drag other pairs of the same activation along.  This module computes
that redundancy relation per model and exposes the **frontier** — the
non-subsumed associations — per criterion class, so directed generation
and criterion scoring can work a smaller target set without losing any
coverage guarantees.

Definition.  Association ``A`` *subsumes* ``B`` iff every complete
execution of the model that covers ``A`` also covers ``B``.  Complete
executions are paths ``ENTRY -> ... -> EXIT`` through the wrap-around
CFG (the ``EXIT -> ENTRY`` edge models repeated activations, matching
the dynamic matcher's cross-activation most-recent-definition pairing
for locals *and* members; a simulation may stop after any activation,
so every EXIT visit is a potential end of execution).

The check is exact over an abstraction of executions and runs as a
product-state search: states are ``(cfg_node, liveA, covA, liveB,
covB)`` where ``live`` tracks "the most recent definition event of the
variable came from the association's def line" and ``cov`` latches once
the association's use fires while live.  ``A`` subsumes ``B`` iff no
state ``(EXIT, covA=1, covB=0)`` is reachable.  Occurrences marked
conditional by :mod:`repro.analysis.defuse` (short-circuit operands,
conditional-expression arms, ``for`` targets) may or may not emit their
probe event on a given visit; the search branches on both outcomes,
which over-approximates real executions and therefore only ever *drops*
subsumption edges — the frontier stays a sound covering set.

The raw relation is a preorder (mutually-subsuming associations form
equivalence classes).  The exposed :meth:`SubsumptionResult.subsumes`
relation breaks those ties canonically by association key, yielding a
strict partial order whose maximal elements are the frontier.

Scope limits: only intra-model LOCAL/MEMBER associations participate;
PORT-scope associations (cluster-level bindings, placeholders) involve
token-index / sample-and-hold semantics the CFG cannot see and are all
kept in the frontier.  The relation is computed within one (model,
criterion class) group so each per-class frontier is self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.associations import AssocClass, Association, PairKey, VarScope
from .astutils import RefKind, VarRef
from .cfg import Cfg, ENTRY, EXIT
from .cluster_analysis import StaticAnalysisResult
from .model_analysis import ModelAnalysis

#: Per-group size above which the pairwise search is skipped and every
#: member kept in the frontier (quadratic BFS cost guard; never hit by
#: the bundled systems).
MAX_GROUP = 120

# Monitor state bits (packed beside the CFG node id).
_LIVE_A, _COV_A, _LIVE_B, _COV_B = 1, 2, 4, 8


@dataclass(frozen=True)
class _Event:
    """One probe-relevant occurrence inside a CFG node, in firing order."""

    is_def: bool
    var: VarRef
    line: int            #: absolute source line
    conditional: bool    #: may be skipped on some visits of the node


class _ModelProgram:
    """A model's wrap-around CFG compiled to per-node event lists."""

    def __init__(self, analysis: ModelAnalysis) -> None:
        assert analysis.cfg is not None
        cfg: Cfg = analysis.cfg.with_wraparound()
        info = analysis.source
        self.succ = cfg.succ
        self.events: Dict[int, Tuple[_Event, ...]] = {}
        for node in cfg.nodes:
            du = node.defuse
            evs: List[_Event] = []
            # Use probes are expression wrappers and fire before the
            # statement-level def probes appended after the assignment.
            for ref, line in du.uses:
                if ref.kind in (RefKind.LOCAL, RefKind.MEMBER):
                    evs.append(_Event(False, ref, info.absolute_line(line),
                                      du.is_conditional((ref, line))))
            for ref, line in du.defs:
                if ref.kind in (RefKind.LOCAL, RefKind.MEMBER):
                    evs.append(_Event(True, ref, info.absolute_line(line),
                                      du.is_conditional((ref, line))))
            self.events[node.nid] = tuple(evs)


@dataclass(frozen=True)
class _Tracked:
    """One association as the monitor sees it."""

    var: VarRef
    def_line: int
    use_line: int


def _as_tracked(assoc: Association) -> _Tracked:
    kind = RefKind.LOCAL if assoc.scope is VarScope.LOCAL else RefKind.MEMBER
    return _Tracked(VarRef(kind, assoc.var), assoc.definition.line, assoc.use.line)


def _fire(ev: _Event, bits: int, a: _Tracked, b: _Tracked) -> int:
    """Apply one fired probe event to the packed monitor state."""
    if ev.is_def:
        if ev.var == a.var:
            bits = (bits | _LIVE_A) if ev.line == a.def_line else (bits & ~_LIVE_A)
        if ev.var == b.var:
            bits = (bits | _LIVE_B) if ev.line == b.def_line else (bits & ~_LIVE_B)
    else:
        if ev.var == a.var and ev.line == a.use_line and bits & _LIVE_A:
            bits |= _COV_A
        if ev.var == b.var and ev.line == b.use_line and bits & _LIVE_B:
            bits |= _COV_B
    return bits


def _apply_node(events: Tuple[_Event, ...], bits: int, a: _Tracked, b: _Tracked) -> Set[int]:
    """All monitor states after visiting a node (branching on conditionals)."""
    states = {bits}
    for ev in events:
        nxt = set()
        for s in states:
            if ev.conditional:
                nxt.add(s)  # the occurrence may not fire on this visit
            nxt.add(_fire(ev, s, a, b))
        states = nxt
    return states


def _covers_implies(prog: _ModelProgram, a: _Tracked, b: _Tracked) -> bool:
    """Whether every complete abstract execution covering ``a`` covers ``b``."""
    start = (ENTRY, 0)
    seen = {start}
    stack = [start]
    while stack:
        nid, bits = stack.pop()
        if nid == EXIT and (bits & _COV_A) and not (bits & _COV_B):
            return False  # witness: a complete run covering A, missing B
        for succ in prog.succ[nid]:
            for nbits in _apply_node(prog.events[succ], bits, a, b):
                state = (succ, nbits)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return True


@dataclass(frozen=True)
class SubsumptionResult:
    """The subsumption partial order and its frontier (immutable, so
    one result is shared by every caller with the same fingerprint)."""

    #: Every association of the analysed cluster, in static-result order.
    associations: Tuple[Association, ...]
    #: Strict partial order: key -> keys it (directly) subsumes.
    subsumed_of: Mapping[PairKey, FrozenSet[PairKey]] = field(default_factory=dict)
    #: Non-subsumed (maximal) association keys, over all classes.
    frontier_keys: FrozenSet[PairKey] = frozenset()
    #: For each subsumed association, the canonical frontier key whose
    #: coverage guarantees it.
    representative: Mapping[PairKey, PairKey] = field(default_factory=dict)

    # -- queries ----------------------------------------------------------

    def frontier(self, klass: Optional[AssocClass] = None) -> List[Association]:
        """Non-subsumed associations (optionally of one criterion class)."""
        return [
            a for a in self.associations
            if a.key in self.frontier_keys and (klass is None or a.klass is klass)
        ]

    def subsumes(self, a: PairKey, b: PairKey) -> bool:
        """Whether covering ``a`` guarantees covering ``b`` (strict order)."""
        return b in self.subsumed_of.get(a, frozenset())

    def subsumed_keys(self) -> FrozenSet[PairKey]:
        """Keys of every association dominated by a frontier element."""
        return frozenset(a.key for a in self.associations) - self.frontier_keys

    def counts(self) -> Dict[AssocClass, Tuple[int, int]]:
        """Per class: (frontier size, total associations)."""
        out: Dict[AssocClass, Tuple[int, int]] = {}
        for a in self.associations:
            front, total = out.get(a.klass, (0, 0))
            out[a.klass] = (front + (1 if a.key in self.frontier_keys else 0), total + 1)
        return out


def _intra_model_groups(
    static: StaticAnalysisResult,
) -> Dict[Tuple[str, AssocClass], List[Association]]:
    groups: Dict[Tuple[str, AssocClass], List[Association]] = {}
    for assoc in static.associations:
        if assoc.scope is VarScope.PORT:
            continue
        if assoc.definition.model != assoc.use.model:
            continue
        model = static.models.get(assoc.definition.model)
        if model is None or model.cfg is None:
            continue
        groups.setdefault((assoc.definition.model, assoc.klass), []).append(assoc)
    return groups


def analyze_subsumption(static: StaticAnalysisResult) -> SubsumptionResult:
    """Compute the subsumption partial order for a cluster's associations.

    Works purely over the static result (the stored per-model CFGs); no
    simulation is involved.  The relation is a pure function of the
    static result, so the default static-analysis cache keeps one per
    fingerprint; a result without a fingerprint, or a disabled cache,
    computes it afresh.
    """
    from .cache import get_default_cache

    cache = get_default_cache()
    if static.fingerprint is None or not cache.enabled:
        return _compute_subsumption(static)
    result = cache.subsumptions.get(static.fingerprint)
    if result is None:
        result = _compute_subsumption(static)
        cache.subsumptions[static.fingerprint] = result
    return result


def _compute_subsumption(static: StaticAnalysisResult) -> SubsumptionResult:
    associations = tuple(static.associations)
    pre: Dict[PairKey, Set[PairKey]] = {}

    for (model_name, _klass), group in _intra_model_groups(static).items():
        if len(group) < 2 or len(group) > MAX_GROUP:
            continue
        prog = _ModelProgram(static.models[model_name])
        tracked = [(a, _as_tracked(a)) for a in group]
        for a_assoc, a_t in tracked:
            for b_assoc, b_t in tracked:
                if a_assoc.key == b_assoc.key:
                    continue
                if _covers_implies(prog, a_t, b_t):
                    pre.setdefault(a_assoc.key, set()).add(b_assoc.key)

    # Preorder -> strict partial order: within a mutual-subsumption
    # equivalence class only the smallest key dominates the others.
    subsumed_of: Dict[PairKey, FrozenSet[PairKey]] = {}
    for a_key, downs in pre.items():
        strict = {
            b_key for b_key in downs
            if a_key not in pre.get(b_key, ()) or a_key <= b_key
        }
        if strict:
            subsumed_of[a_key] = frozenset(strict)

    dominated: Set[PairKey] = set()
    for downs in subsumed_of.values():
        dominated |= downs
    frontier_keys = frozenset(a.key for a in associations) - dominated

    representative: Dict[PairKey, PairKey] = {}
    by_subsumer = subsumed_of
    for f_key in sorted(frontier_keys):
        for b_key in sorted(by_subsumer.get(f_key, frozenset())):
            representative.setdefault(b_key, f_key)

    return SubsumptionResult(
        associations=associations,
        subsumed_of=MappingProxyType(subsumed_of),
        frontier_keys=frontier_keys,
        representative=MappingProxyType(representative),
    )


def frontier_reduced(
    associations: Iterable[Association],
    subsumption: SubsumptionResult,
) -> Tuple[List[Association], List[Association]]:
    """Split ``associations`` into (frontier members, subsumed members)."""
    front: List[Association] = []
    subsumed: List[Association] = []
    for assoc in associations:
        (front if assoc.key in subsumption.frontier_keys else subsumed).append(assoc)
    return front, subsumed
