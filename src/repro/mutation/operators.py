"""Mutation operators over TDF clusters (AST level and netlist level).

Each operator enumerates its *mutation points* on a cluster as a
deterministic list — the order depends only on the cluster's module
registration order, port declaration order and the (freshly parsed)
``processing()`` ASTs.  A :class:`MutantSpec` names one point by
``(operator, site index, target)``; generation and application share
the single enumeration code path, so a spec generated in one process
can be re-applied to an identically built cluster in any other process
(the property the parallel mutant executor relies on).

AST operators rewrite a module's ``processing()`` body and install the
mutated function on *that instance only*, through the same
compile/install pipeline the instrumenter uses
(:func:`repro.instrument.compile_processing_ast` /
:func:`install_processing_ast`):

``aor``  arithmetic operator replacement (``+ <-> -``, ``* <-> /``);
``ror``  relational operator replacement (``< <-> <=``, ``> <-> >=``,
         ``== <-> !=``);
``cpr``  constant perturbation (int ``+1``, float ``+0.5``);
``sdl``  statement deletion (eligible statements become ``pass``);
``dsr``  def-site retarget (``self.m_x = e`` stores into the next
         member variable instead).

Netlist operators perturb the cluster structure and attributes:

``swap``   exchange the signals bound to two input ports of a module;
``rate``   increment one port's declared rate after ``set_attributes``;
``delay``  increment one port's declared delay after ``set_attributes``;
``gain``   perturb a float coefficient of a redefining library element;
``drop``   bypass a SISO redefining element (its readers are rewired to
           the element's input signal).

A mutant that cannot elaborate (rate/delay inconsistencies, schedule
deadlocks) is *nonviable*, not killed — the executor classifies that.
"""

from __future__ import annotations

import ast
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.astutils import (
    KERNEL_ATTRS,
    SourceInfo,
    get_source_info,
    member_store_names,
    port_write_target,
    self_attribute,
)
from ..instrument.instrumenter import compile_processing_ast, install_processing_ast
from ..tdf.cluster import Cluster
from ..tdf.module import TdfModule
from ..tdf.ports import Port, TdfIn
from ..tdf.signal import Signal


class MutantNotApplicable(Exception):
    """The spec does not name a valid mutation point on this cluster."""


@dataclass(frozen=True)
class MutantSpec:
    """A picklable name for one mutation point (see module docstring)."""

    mutant_id: str
    operator: str
    target: str
    site: int
    detail: str


@dataclass(frozen=True)
class MutationPoint:
    """One applicable mutation on one concrete cluster."""

    target: str
    detail: str
    apply: Callable[[], None]


#: ``(underlying function, operator, site)`` -> ``(code, func name)``.
#: A mutant is applied once per testcase (fresh cluster each time); the
#: AST rewrite and ``compile()`` only run on the first application.
_AST_CODE_CACHE: Dict[tuple, Tuple[Any, str]] = {}


def _underlying(module: TdfModule) -> Callable:
    fn = module.resolved_processing()
    return fn.__func__ if isinstance(fn, types.MethodType) else fn


def _ast_modules(cluster: Cluster) -> Iterator[Tuple[TdfModule, SourceInfo]]:
    """Modules whose processing source is mutated (DUV, non-library).

    Matches the instrumenter's scope: testbench modules sit outside the
    design under verification and redefining library elements get their
    own netlist operators instead.
    """
    for module in cluster.modules:
        if module.TESTBENCH or module.REDEFINING:
            continue
        if module._processing_fn is None and type(module).processing is TdfModule.processing:
            continue
        try:
            info = get_source_info(module.resolved_processing())
        except (OSError, TypeError, ValueError):
            continue
        yield module, info


class MutationOperator:
    """Base class: a named family of mutation points."""

    name: str = "?"
    description: str = ""

    def points(self, cluster: Cluster) -> List[MutationPoint]:
        raise NotImplementedError

    def point_at(self, cluster: Cluster, site: int) -> Optional[MutationPoint]:
        """The point with global index ``site`` (None when out of range).

        Default implementation enumerates everything; operators with an
        expensive :meth:`points` override this with a scoped lookup.
        """
        pts = self.points(cluster)
        if 0 <= site < len(pts):
            return pts[site]
        return None


#: ``(operator name, underlying processing fn)`` -> node-point count.
#: Lets :meth:`_AstOperator.point_at` skip re-parsing the source of
#: every module that cannot own the requested site — ``apply_mutant``
#: runs once per (mutant, testcase) pair, and without this each call
#: re-walked the AST of all mutable modules just to index one point.
_POINT_COUNT_CACHE: Dict[tuple, int] = {}


class _AstOperator(MutationOperator):
    """AST operators share the enumerate/mutate/compile/install plumbing."""

    def node_points(
        self, module: TdfModule, info: SourceInfo
    ) -> List[Tuple[str, Callable[[], None]]]:
        """``(detail, mutate)`` pairs; ``mutate`` edits ``info.func`` in place."""
        raise NotImplementedError

    def points(self, cluster: Cluster) -> List[MutationPoint]:
        pts: List[MutationPoint] = []
        for module, info in _ast_modules(cluster):
            base = len(pts)
            node_pts = self.node_points(module, info)
            _POINT_COUNT_CACHE[(self.name, _underlying(module))] = len(node_pts)
            for offset, (detail, mutate) in enumerate(node_pts):
                pts.append(self._point(module, info, base + offset, detail, mutate))
        return pts

    def point_at(self, cluster: Cluster, site: int) -> Optional[MutationPoint]:
        """Scoped lookup: only the module owning ``site`` is parsed.

        Site indices are assigned module-major in cluster order (see
        :meth:`points`), so known per-module counts let the scan skip
        straight to the owner; the counts are a pure function of the
        underlying processing source, hence cacheable across clusters.
        """
        if site < 0:
            return None
        base = 0
        for module in cluster.modules:
            if module.TESTBENCH or module.REDEFINING:
                continue
            if (
                module._processing_fn is None
                and type(module).processing is TdfModule.processing
            ):
                continue
            key = (self.name, _underlying(module))
            count = _POINT_COUNT_CACHE.get(key)
            if count is not None and site >= base + count:
                base += count
                continue
            try:
                info = get_source_info(module.resolved_processing())
            except (OSError, TypeError, ValueError):
                _POINT_COUNT_CACHE[key] = 0
                continue
            node_pts = self.node_points(module, info)
            _POINT_COUNT_CACHE[key] = len(node_pts)
            if site < base + len(node_pts):
                detail, mutate = node_pts[site - base]
                return self._point(module, info, site, detail, mutate)
            base += len(node_pts)
        return None

    def _point(
        self,
        module: TdfModule,
        info: SourceInfo,
        site: int,
        detail: str,
        mutate: Callable[[], None],
    ) -> MutationPoint:
        underlying = _underlying(module)
        func_name = info.func.name
        op_name = self.name

        def apply() -> None:
            key = (underlying, op_name, site)
            cached = _AST_CODE_CACHE.get(key)
            if cached is None:
                mutate()
                cached = (compile_processing_ast(info.func, info), func_name)
                _AST_CODE_CACHE[key] = cached
            install_processing_ast(module, cached[0], cached[1])

        return MutationPoint(module.name, detail, apply)


_AOR_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_ROR_SWAP = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}

_OP_SYMBOL = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=",
}


class AorOperator(_AstOperator):
    name = "aor"
    description = "arithmetic operator replacement"

    def node_points(self, module, info):
        pts = []
        for node in ast.walk(info.func):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _AOR_SWAP:
                old, new = type(node.op), _AOR_SWAP[type(node.op)]
                detail = (
                    f"{module.name}: {_OP_SYMBOL[old]} -> {_OP_SYMBOL[new]} "
                    f"@L{info.absolute_line(node.lineno)}"
                )

                def mutate(node=node, new=new):
                    node.op = new()

                pts.append((detail, mutate))
        return pts


class RorOperator(_AstOperator):
    name = "ror"
    description = "relational operator replacement"

    def node_points(self, module, info):
        pts = []
        for node in ast.walk(info.func):
            if isinstance(node, ast.Compare) and node.ops and type(node.ops[0]) in _ROR_SWAP:
                old, new = type(node.ops[0]), _ROR_SWAP[type(node.ops[0])]
                detail = (
                    f"{module.name}: {_OP_SYMBOL[old]} -> {_OP_SYMBOL[new]} "
                    f"@L{info.absolute_line(node.lineno)}"
                )

                def mutate(node=node, new=new):
                    node.ops[0] = new()

                pts.append((detail, mutate))
        return pts


class CprOperator(_AstOperator):
    name = "cpr"
    description = "constant perturbation"

    def node_points(self, module, info):
        pts = []
        for node in ast.walk(info.func):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)
            ):
                delta = 1 if isinstance(node.value, int) else 0.5
                detail = (
                    f"{module.name}: {node.value!r} -> {node.value + delta!r} "
                    f"@L{info.absolute_line(node.lineno)}"
                )

                def mutate(node=node, delta=delta):
                    node.value = node.value + delta

                pts.append((detail, mutate))
        return pts


class SdlOperator(_AstOperator):
    name = "sdl"
    description = "statement deletion"

    def node_points(self, module, info):
        out_ports = {p.name for p in module.out_ports()}
        pts = []
        for stmts, idx, stmt in _statement_sites(info.func):
            if not self._eligible(stmt, out_ports):
                continue
            detail = (
                f"{module.name}: delete {type(stmt).__name__} "
                f"@L{info.absolute_line(stmt.lineno)}"
            )

            def mutate(stmts=stmts, idx=idx, stmt=stmt):
                stmts[idx] = ast.copy_location(ast.Pass(), stmt)

            pts.append((detail, mutate))
        return pts

    @staticmethod
    def _eligible(stmt: ast.stmt, out_ports) -> bool:
        if isinstance(stmt, ast.Expr):
            # Docstrings and other bare constants are equivalent mutants.
            if isinstance(stmt.value, ast.Constant):
                return False
        elif not isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            return False
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                target = port_write_target(node)
                if target is not None and target in out_ports:
                    return False
        return True


def _statement_sites(func: ast.FunctionDef) -> List[Tuple[list, int, ast.stmt]]:
    """``(parent list, index, statement)`` for every statement, in a
    deterministic depth-first order."""
    sites: List[Tuple[list, int, ast.stmt]] = []

    def visit(stmts: list) -> None:
        for idx, stmt in enumerate(stmts):
            sites.append((stmts, idx, stmt))
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if isinstance(inner, list):
                    visit(inner)

    visit(func.body)
    return sites


class DsrOperator(_AstOperator):
    name = "dsr"
    description = "def-site retarget (store into the next member variable)"

    def node_points(self, module, info):
        members = sorted(member_store_names(info.func))
        if len(members) < 2:
            return []
        pts = []
        for node in ast.walk(info.func):
            target: Optional[ast.Attribute] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Attribute):
                    target = node.targets[0]
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                target = node.target
            if target is None:
                continue
            attr = self_attribute(target)
            if attr is None or attr in KERNEL_ATTRS or attr not in members:
                continue
            successor = members[(members.index(attr) + 1) % len(members)]
            detail = (
                f"{module.name}: def self.{attr} -> self.{successor} "
                f"@L{info.absolute_line(node.lineno)}"
            )

            def mutate(target=target, successor=successor):
                target.attr = successor

            pts.append((detail, mutate))
        return pts


# -- netlist operators ---------------------------------------------------------


def _rebind(port: TdfIn, new_sig: Signal) -> None:
    """Move an already-bound input port onto a different signal."""
    old = port.signal
    if old is not None and port in old.readers:
        old.readers.remove(port)
    port.signal = new_sig
    new_sig.attach_reader(port)


def _wrap_set_attributes(module: TdfModule, extra: Callable[[], None]) -> None:
    """Run ``extra`` after the module's own ``set_attributes``.

    Installed as an *instance* attribute so only this cluster's module
    is affected; elaboration calls ``set_attributes`` (possibly several
    times under dynamic TDF), so the perturbation survives
    re-elaboration exactly like a genuine attribute declaration would.
    """
    original = module.set_attributes

    def wrapped() -> None:
        original()
        extra()

    module.set_attributes = wrapped


class SwapOperator(MutationOperator):
    name = "swap"
    description = "exchange the signals bound to two input ports"

    def points(self, cluster):
        pts = []
        for module in cluster.modules:
            if module.TESTBENCH:
                continue
            ins = [p for p in module.in_ports() if p.signal is not None]
            for i in range(len(ins)):
                for j in range(i + 1, len(ins)):
                    a, b = ins[i], ins[j]
                    if a.signal is b.signal:
                        continue
                    detail = f"{a.full_name()} <-> {b.full_name()}"

                    def apply(a=a, b=b):
                        sig_a, sig_b = a.signal, b.signal
                        _rebind(a, sig_b)
                        _rebind(b, sig_a)

                    pts.append(MutationPoint(module.name, detail, apply))
        return pts


class RateOperator(MutationOperator):
    name = "rate"
    description = "off-by-one port rate"

    def points(self, cluster):
        pts = []
        for module in cluster.modules:
            if module.TESTBENCH:
                continue
            for port in module.ports():
                if port.signal is None:
                    continue
                detail = f"{port.full_name()}: rate += 1"

                def apply(module=module, port=port):
                    _wrap_set_attributes(module, lambda p=port: p.set_rate(p.rate + 1))

                pts.append(MutationPoint(module.name, detail, apply))
        return pts


class DelayOperator(MutationOperator):
    name = "delay"
    description = "off-by-one port delay"

    def points(self, cluster):
        pts = []
        for module in cluster.modules:
            if module.TESTBENCH:
                continue
            for port in module.ports():
                if port.signal is None:
                    continue
                detail = f"{port.full_name()}: delay += 1"

                def apply(module=module, port=port):
                    _wrap_set_attributes(module, lambda p=port: p.set_delay(p.delay + 1))

                pts.append(MutationPoint(module.name, detail, apply))
        return pts


class GainOperator(MutationOperator):
    name = "gain"
    description = "perturb a float coefficient of a redefining element"

    def points(self, cluster):
        pts = []
        for module in cluster.modules:
            if not module.REDEFINING:
                continue
            for attr in sorted(vars(module)):
                if not attr.startswith("m_"):
                    continue
                value = getattr(module, attr)
                if isinstance(value, bool) or not isinstance(value, float):
                    continue
                mutated = value * 1.5 + 0.25
                detail = f"{module.name}.{attr}: {value!r} -> {mutated!r}"

                def apply(module=module, attr=attr, mutated=mutated):
                    setattr(module, attr, mutated)

                pts.append(MutationPoint(module.name, detail, apply))
        return pts


class DropOperator(MutationOperator):
    name = "drop"
    description = "bypass a SISO redefining element"

    def points(self, cluster):
        pts = []
        for module in cluster.modules:
            if not module.REDEFINING:
                continue
            ins = [p for p in module.in_ports() if p.signal is not None]
            outs = [p for p in module.out_ports() if p.signal is not None]
            if len(ins) != 1 or len(outs) != 1:
                continue
            in_sig, out_sig = ins[0].signal, outs[0].signal
            if not out_sig.readers:
                continue
            detail = f"bypass {module.name} ({in_sig.name} feeds {out_sig.name} readers)"

            def apply(in_sig=in_sig, out_sig=out_sig):
                for reader in list(out_sig.readers):
                    _rebind(reader, in_sig)

            pts.append(MutationPoint(module.name, detail, apply))
        return pts


#: Registry in the canonical enumeration order (AST then netlist).
ALL_OPERATORS: Dict[str, MutationOperator] = {
    op.name: op
    for op in (
        AorOperator(),
        RorOperator(),
        CprOperator(),
        SdlOperator(),
        DsrOperator(),
        SwapOperator(),
        RateOperator(),
        DelayOperator(),
        GainOperator(),
        DropOperator(),
    )
}


def select_operators(names: Optional[Sequence[str]]) -> List[str]:
    if not names:
        return list(ALL_OPERATORS)
    unknown = [n for n in names if n not in ALL_OPERATORS]
    if unknown:
        raise ValueError(
            f"unknown mutation operator(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(ALL_OPERATORS)}"
        )
    return list(names)


def generate_mutants(
    cluster: Cluster, operators: Optional[Sequence[str]] = None
) -> List[MutantSpec]:
    """Enumerate every mutation point of ``operators`` on ``cluster``.

    The spec list is deterministic for identically built clusters, so
    any process can regenerate it from the cluster factory alone.
    """
    specs: List[MutantSpec] = []
    for name in select_operators(operators):
        op = ALL_OPERATORS[name]
        for site, point in enumerate(op.points(cluster)):
            specs.append(
                MutantSpec(
                    mutant_id=f"{name}:{site:03d}:{point.target}",
                    operator=name,
                    target=point.target,
                    site=site,
                    detail=point.detail,
                )
            )
    return specs


def apply_mutant(cluster: Cluster, spec: MutantSpec) -> None:
    """Apply ``spec`` to a freshly built ``cluster`` (in place).

    Raises :class:`MutantNotApplicable` when the cluster does not
    expose the named point (e.g. the spec came from a different system).
    """
    op = ALL_OPERATORS.get(spec.operator)
    if op is None:
        raise MutantNotApplicable(f"unknown operator {spec.operator!r}")
    point = op.point_at(cluster, spec.site)
    if point is None or point.target != spec.target:
        raise MutantNotApplicable(
            f"mutant {spec.mutant_id} does not exist on cluster "
            f"{cluster.name!r} ({len(op.points(cluster))} "
            f"{spec.operator} points)"
        )
    point.apply()
