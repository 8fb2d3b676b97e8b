"""Per-association fitness for coverage-guided stimulus search.

Search-based data-flow test generation (Su et al., *Towards Efficient
Data-flow Test Data Generation*) steers an optimizer with a
per-association distance: how close did this input come to driving the
definition's value into the use?  Our observation layer is the set of
exercised pairs the dynamic analysis already records — so the fitness
is computed from a candidate's
:class:`~repro.instrument.matching.MatchResult` pair set alone.  That
keeps the signal byte-identical across execution backends, engines and
the per-testcase result cache (they all agree on the pair set), which
is what makes the whole search deterministic.

For a target association ``(v, d, dm, u, um)`` the levels are:

``covered``
    the exact pair was exercised — the testcase closes the association;
``def_reached``
    the definition fired and its value flowed to *some* use (a pair
    with the same ``(v, d, dm)`` definition side exists);
``use_reached``
    the use site executed, fed by *some* definition (a pair with the
    same ``(u, um)`` use side exists);
``killed_en_route``
    the use executed reading ``v`` but paired with a *different*
    definition — the target value was overwritten (redefined) on the
    way.  The strongest non-covering signal: def and use both live,
    only the path between them is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.associations import Association, PairKey, VarScope

#: Score weights.  ``covered`` is exactly 1.0; the partial levels sum
#: to strictly less, so "closed" is never aliased by partial progress.
_W_DEF = 0.4
_W_USE = 0.3
_W_KILLED = 0.2
#: Graded refinement weights (see :func:`graded_fitness`).  Together
#: with the base levels the maximum uncovered score is 0.99 — still
#: strictly below ``covered``, so the binary ordering is preserved.
_W_APPROACH = 0.06
_W_KILL_PROX = 0.03


@dataclass(frozen=True)
class Fitness:
    """Distance signal of one candidate for one target association."""

    score: float
    covered: bool
    def_reached: bool
    use_reached: bool
    killed_en_route: bool

    def __lt__(self, other: "Fitness") -> bool:
        return self.score < other.score


def association_fitness(target: PairKey, pairs: Set[PairKey]) -> Fitness:
    """Fitness of a pair set (one candidate's run) for ``target``."""
    if target in pairs:
        return Fitness(1.0, True, True, True, False)
    var, dm, dl, um, ul = target
    def_reached = False
    use_reached = False
    killed = False
    for p_var, p_dm, p_dl, p_um, p_ul in pairs:
        if p_var == var and p_dm == dm and p_dl == dl:
            def_reached = True
        if p_um == um and p_ul == ul:
            use_reached = True
            if p_var == var and (p_dm, p_dl) != (dm, dl):
                killed = True
        if def_reached and killed:
            break
    score = (
        _W_DEF * def_reached + _W_USE * use_reached + _W_KILLED * killed
    )
    return Fitness(score, False, def_reached, use_reached, killed)


def closed_targets(
    targets: Iterable[PairKey], pairs: Set[PairKey]
) -> Tuple[PairKey, ...]:
    """The subset of ``targets`` the pair set covers, in target order."""
    return tuple(t for t in targets if t in pairs)


# -- graded du-path distance (Su et al.-style approach level) ----------------


@dataclass(frozen=True)
class DuPathGuide:
    """Static du-path geometry of one target association.

    Precomputed once per target from the stored model CFG; evaluation
    then reduces to dictionary lookups over the candidate's observed
    pair set — keeping the graded fitness a pure function of the pair
    set, so it stays byte-identical across engines and worker counts
    just like the binary levels.

    ``approach_by_use``
        use line -> progress in (0, 1] for pairs whose def side *is*
        the target definition: how close (in def-clear CFG edges over
        the wrap-around graph) the observed use sits to the target use.
    ``kill_by_def``
        killing-def line -> proximity in (0, 1] for pairs that fed the
        target use from a different definition: how close the
        overwriting definition sits to the use (the value survived
        longer along the du-path).
    """

    target: PairKey
    approach_by_use: Mapping[int, float] = field(default_factory=dict)
    kill_by_def: Mapping[int, float] = field(default_factory=dict)


def _backward_distances(cfg, use_nodes, blocked) -> Dict[int, int]:
    """BFS over reversed edges from ``use_nodes``.

    ``blocked`` nodes receive a distance (their own uses fire before
    the node's killing definition) but are not expanded through.
    """
    dist: Dict[int, int] = {nid: 0 for nid in use_nodes}
    frontier: List[int] = list(use_nodes)
    while frontier:
        nxt: List[int] = []
        for nid in frontier:
            if nid in blocked and dist[nid] > 0:
                continue
            for pred in cfg.pred[nid]:
                if pred not in dist:
                    dist[pred] = dist[nid] + 1
                    nxt.append(pred)
        frontier = nxt
    return dist


def build_guides(static, targets: Iterable[Association]) -> Dict[PairKey, DuPathGuide]:
    """Build :class:`DuPathGuide` tables for the intra-model ``targets``.

    ``static`` is the cluster's
    :class:`~repro.analysis.cluster_analysis.StaticAnalysisResult`.
    Targets without usable CFG geometry (PORT scope, cross-model, or
    models analysed before CFGs were stored) simply get no guide and
    fall back to the binary levels.
    """
    from ..analysis.astutils import RefKind, VarRef

    guides: Dict[PairKey, DuPathGuide] = {}
    for assoc in targets:
        if assoc.scope is VarScope.PORT:
            continue
        if assoc.definition.model != assoc.use.model:
            continue
        ma = static.models.get(assoc.definition.model)
        if ma is None or ma.cfg is None:
            continue
        cfg = ma.cfg.with_wraparound()
        info = ma.source
        kind = RefKind.LOCAL if assoc.scope is VarScope.LOCAL else RefKind.MEMBER
        ref = VarRef(kind, assoc.var)
        dl, ul = assoc.definition.line, assoc.use.line

        use_nodes = set()
        killing_nodes = set()
        for node in cfg.nodes:
            for r, line in node.defuse.uses:
                if r == ref and info.absolute_line(line) == ul:
                    use_nodes.add(node.nid)
            for r, line in node.defuse.defs:
                if r == ref and info.absolute_line(line) != dl:
                    killing_nodes.add(node.nid)
        if not use_nodes:
            continue

        # Def-clear backward region: how many edges from each node's
        # uses to the target use without crossing a redefinition.
        clear = _backward_distances(cfg, use_nodes, killing_nodes)
        # Unrestricted distances grade killing definitions by proximity.
        full = _backward_distances(cfg, use_nodes, frozenset())

        approach_by_use: Dict[int, float] = {}
        kill_by_def: Dict[int, float] = {}
        for node in cfg.nodes:
            d_clear = clear.get(node.nid)
            if d_clear is not None:
                for r, line in node.defuse.uses:
                    abs_line = info.absolute_line(line)
                    if r == ref and abs_line != ul:
                        score = 1.0 / (1.0 + d_clear)
                        if score > approach_by_use.get(abs_line, 0.0):
                            approach_by_use[abs_line] = score
            d_full = full.get(node.nid)
            if d_full is not None:
                for r, line in node.defuse.defs:
                    abs_line = info.absolute_line(line)
                    if r == ref and abs_line != dl:
                        score = 1.0 / (1.0 + d_full)
                        if score > kill_by_def.get(abs_line, 0.0):
                            kill_by_def[abs_line] = score
        guides[assoc.key] = DuPathGuide(assoc.key, approach_by_use, kill_by_def)
    return guides


def graded_fitness(
    target: PairKey, pairs: Set[PairKey], guide: Optional[DuPathGuide] = None
) -> Fitness:
    """Binary levels refined by du-path distance when a guide exists.

    Strictly consistent with :func:`association_fitness`: covered stays
    exactly 1.0, the refinement only redistributes mass *within* the
    uncovered band (maximum uncovered score 0.99), and with no guide
    the result is identical to the binary fitness.
    """
    base = association_fitness(target, pairs)
    if base.covered or guide is None:
        return base
    var, dm, dl, um, ul = target
    approach = 0.0
    kill_prox = 0.0
    for p_var, p_dm, p_dl, p_um, p_ul in pairs:
        if p_var == var and p_dm == dm and p_dl == dl:
            approach = max(approach, guide.approach_by_use.get(p_ul, 0.0))
        elif p_var == var and p_um == um and p_ul == ul:
            kill_prox = max(kill_prox, guide.kill_by_def.get(p_dl, 0.0))
    if not approach and not kill_prox:
        return base
    score = base.score + _W_APPROACH * approach + _W_KILL_PROX * kill_prox
    return Fitness(
        score, False, base.def_reached, base.use_reached, base.killed_en_route
    )
