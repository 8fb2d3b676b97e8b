"""Cluster-level static analysis (paper §V, step 2).

Combines the per-model analyses with the netlist binding information:

* output-port definition sites are traced through the netlist
  (:func:`repro.analysis.netlist.trace_branches`) and become Strong /
  PFirm / PWeak associations according to which branch mix (original /
  redefined) reaches each using model (paper §IV-B1);
* input-port placeholder associations (def anchored at the model start)
  are *resolved* — replaced by the cross-model association — whenever an
  analysed model's definition reaches the port; ports fed only by the
  testbench keep their placeholder (Table I's
  ``(ip_signal_in, 1, TS, 3, TS)``);
* uses inside ``OPAQUE_USES`` library models are anchored at the
  netlist bind statement of the consuming port, with the *cluster* as
  the using model (Table I's ``(op_mux_out, 77, sense_top, 79,
  sense_top)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..obs import get_telemetry
from ..core.associations import (
    AssocClass,
    Association,
    Definition,
    SourceLocation,
    VarScope,
)
from ..tdf.cluster import Cluster
from ..tdf.module import TdfModule
from ..tdf.ports import TdfIn
from .model_analysis import ModelAnalysis, PortDefSite, analyze_model
from .netlist import Branch, RedefAnchor, trace_branches


@dataclass
class StaticAnalysisResult:
    """Everything the static stage hands to coverage evaluation."""

    cluster: str
    #: All data-flow associations, classified.
    associations: List[Association] = field(default_factory=list)
    #: Every definition site (for the all-defs criterion).
    definitions: List[Definition] = field(default_factory=list)
    #: Per-model analyses keyed by model name.
    models: Dict[str, ModelAnalysis] = field(default_factory=dict)
    #: Diagnostics: output-port writes that never reach the activation end.
    dead_port_writes: List[PortDefSite] = field(default_factory=list)
    #: Diagnostics: input ports bound to driverless signals.
    undriven_input_ports: List[str] = field(default_factory=list)
    #: Model start line per model (used by the dynamic matcher to anchor
    #: testbench-driven placeholder definitions).
    model_start_lines: Dict[str, int] = field(default_factory=dict)
    #: Fingerprint of the analysed inputs (processing sources + netlist);
    #: the memoization key, also used to scope dynamic-result caches.
    fingerprint: Optional[str] = None

    def by_class(self, klass: AssocClass) -> List[Association]:
        """Associations of one class."""
        return [a for a in self.associations if a.klass is klass]

    def counts(self) -> Dict[AssocClass, int]:
        """Association count per class."""
        result = {klass: 0 for klass in AssocClass}
        for assoc in self.associations:
            result[assoc.klass] += 1
        return result


def _is_analyzable(module: TdfModule) -> bool:
    return not module.TESTBENCH and not module.REDEFINING


def _use_anchors(
    cluster: Cluster,
    branch: Branch,
    models: Dict[str, ModelAnalysis],
) -> List[SourceLocation]:
    """Use anchors of ``branch.reader`` in its terminal module."""
    module = branch.module
    if module.OPAQUE_USES:
        site = branch.reader.bind_site
        if site is None:
            return []
        return [SourceLocation(model=cluster.name, line=site.lineno, file=site.filename)]
    analysis = models.get(module.name)
    if analysis is None:
        return []
    return [
        SourceLocation(model=module.name, line=use.line, file=analysis.source.filename)
        for use in analysis.in_port_uses
        if use.port == branch.reader.name
    ]


_UNSET = object()


def analyze_cluster(
    cluster: Cluster, telemetry=None, cache=_UNSET
) -> StaticAnalysisResult:
    """Run the complete static data-flow analysis over ``cluster``.

    Module ``set_attributes()`` must not be required: the analysis is
    purely structural (bindings + source), so it can run before any
    simulation.  Cache hits and misses are counted into ``telemetry``
    (the globally active session when not given).

    Results are memoized on a fingerprint of the processing sources and
    the netlist (see :mod:`repro.analysis.cache`): by default the
    process-wide :func:`~repro.analysis.cache.get_default_cache` is
    consulted; pass an explicit :class:`StaticAnalysisCache` to use a
    private one, or ``cache=None`` to force a fresh analysis.
    """
    from .cache import fingerprint_cluster, get_default_cache

    tel = telemetry if telemetry is not None else get_telemetry()
    if cache is _UNSET:
        cache = get_default_cache()
    fingerprint = fingerprint_cluster(cluster)
    if cache is not None:
        cached = cache.get(fingerprint)
        if cached is not None:
            tel.metrics.counter(
                "analysis.cache_hits", cluster=cluster.name
            ).inc()
            return cached
        tel.metrics.counter("analysis.cache_misses", cluster=cluster.name).inc()
    result = StaticAnalysisResult(cluster=cluster.name, fingerprint=fingerprint)
    models: Dict[str, ModelAnalysis] = {}
    for module in cluster.modules:
        if _is_analyzable(module):
            analysis = analyze_model(module)
            models[module.name] = analysis
            result.model_start_lines[module.name] = analysis.source.def_line
    result.models = models

    # Intra-model associations and definition sites.
    for analysis in models.values():
        result.associations.extend(analysis.associations)
        result.definitions.extend(analysis.definitions)
        result.dead_port_writes.extend(analysis.dead_port_writes)

    # Cluster-level: trace every escaping output-port definition.
    resolved_ports: Set[Tuple[str, str]] = set()
    port_associations: List[Association] = []
    redef_definitions: Dict[Tuple[str, int], Definition] = {}
    seen_keys: Set[Tuple] = set()

    for module in cluster.modules:
        analysis = models.get(module.name)
        if analysis is None:
            continue
        for def_site in analysis.out_port_defs:
            port = module.port(def_site.port)
            branches = trace_branches(port)  # type: ignore[arg-type]
            _emit_port_associations(
                cluster,
                def_site,
                branches,
                models,
                port_associations,
                resolved_ports,
                redef_definitions,
                seen_keys,
            )

    result.associations.extend(port_associations)
    result.definitions.extend(redef_definitions.values())

    # Keep unresolved input-port placeholders.
    for analysis in models.values():
        module = cluster.module(analysis.model)
        if module.OPAQUE_USES:
            continue
        for assoc in analysis.placeholder_associations:
            if (analysis.model, assoc.var) in resolved_ports:
                continue
            result.associations.append(assoc)
            placeholder_def = Definition(
                var=assoc.var, location=assoc.definition, scope=VarScope.PORT
            )
            if placeholder_def not in result.definitions:
                result.definitions.append(placeholder_def)

    for port in cluster.undriven_inputs():
        result.undriven_input_ports.append(port.full_name())

    if cache is not None:
        cache.put(fingerprint, result)
    return result


def _emit_port_associations(
    cluster: Cluster,
    def_site: PortDefSite,
    branches: List[Branch],
    models: Dict[str, ModelAnalysis],
    out: List[Association],
    resolved_ports: Set[Tuple[str, str]],
    redef_definitions: Dict[Tuple[str, int], Definition],
    seen_keys: Set[Tuple],
) -> None:
    """Classify the branches of one definition site (paper §IV-B1)."""
    # Group terminals by using module.
    by_module: Dict[str, List[Branch]] = {}
    for branch in branches:
        by_module.setdefault(branch.module.name, []).append(branch)

    def_loc = SourceLocation(model=def_site.model, line=def_site.line)

    for module_name, group in by_module.items():
        originals = [b for b in group if not b.redefined]
        redefined = [b for b in group if b.redefined]
        mixed = bool(originals) and bool(redefined)

        for branch in originals:
            # Note: a later write of the same port on some path to EXIT
            # does not weaken the association — the paper restricts
            # port redefinition to cluster-level library elements
            # (§IV-B1); intra-model overwrites surface only in the
            # dead-write diagnostics.
            klass = AssocClass.PFIRM if mixed else AssocClass.STRONG
            _mark_resolved(branch, resolved_ports)
            for use_loc in _use_anchors(cluster, branch, models):
                _append(out, seen_keys, Association(
                    var=def_site.port,
                    definition=def_loc,
                    use=use_loc,
                    klass=klass,
                    scope=VarScope.PORT,
                ))

        for branch in redefined:
            anchor = branch.anchor
            if anchor is None:
                continue
            klass = AssocClass.PFIRM if mixed else AssocClass.PWEAK
            redef_loc = SourceLocation(model=cluster.name, line=anchor.line, file=anchor.file)
            _mark_resolved(branch, resolved_ports)
            for use_loc in _use_anchors(cluster, branch, models):
                _append(out, seen_keys, Association(
                    var=def_site.port,
                    definition=redef_loc,
                    use=use_loc,
                    klass=klass,
                    scope=VarScope.PORT,
                ))
            key = (def_site.port, anchor.line)
            if key not in redef_definitions:
                redef_definitions[key] = Definition(
                    var=def_site.port, location=redef_loc, scope=VarScope.PORT
                )


def _mark_resolved(branch: Branch, resolved_ports: Set[Tuple[str, str]]) -> None:
    module = branch.module
    if not module.OPAQUE_USES:
        resolved_ports.add((module.name, branch.reader.name))


def _append(out: List[Association], seen: Set[Tuple], assoc: Association) -> None:
    key = (assoc.key, assoc.klass)
    if key in seen:
        return
    seen.add(key)
    out.append(assoc)
