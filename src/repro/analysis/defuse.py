"""Extraction of definitions and uses from AST fragments.

Given the sets of input/output port names of a model, this module walks
an AST statement (or expression) and reports every definition and use
together with its precise line number, using the :class:`VarRef`
mapping documented in :mod:`repro.analysis.astutils`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Set, Tuple

from .astutils import (
    KERNEL_ATTRS,
    RefKind,
    VarRef,
    port_read_target,
    port_write_target,
    self_attribute,
)

#: A reference occurrence: (variable, 1-based AST line).
Occurrence = Tuple[VarRef, int]


@dataclass
class DefUse:
    """Definitions and uses found in one AST fragment, in source order."""

    defs: List[Occurrence] = field(default_factory=list)
    uses: List[Occurrence] = field(default_factory=list)
    #: Occurrences (defs or uses) that may not execute every time the
    #: fragment does: non-first operands of ``and``/``or``, the arms of a
    #: conditional expression, comprehension parts, and ``for`` loop
    #: targets (which fire per iteration, not per node visit).  Anything
    #: NOT in here is guaranteed to fire whenever the fragment runs.
    cond: Set[Occurrence] = field(default_factory=set)

    def is_conditional(self, occ: Occurrence) -> bool:
        """Whether ``occ`` may be skipped on some executions of the fragment."""
        return occ in self.cond


class _Extractor(ast.NodeVisitor):
    """Collects defs/uses; port accesses take priority over the generic
    attribute/name rules."""

    def __init__(
        self,
        in_ports: Set[str],
        out_ports: Set[str],
        local_names: Set[str],
    ) -> None:
        self.in_ports = in_ports
        self.out_ports = out_ports
        self.local_names = local_names
        self.result = DefUse()
        # Depth of enclosing conditionally-evaluated contexts (short
        # circuit operands, IfExp arms, comprehension bodies).
        self._cond_depth = 0

    # -- reference emission -------------------------------------------------

    def _use(self, ref: VarRef, line: int) -> None:
        self.result.uses.append((ref, line))
        if self._cond_depth:
            self.result.cond.add((ref, line))

    def _def(self, ref: VarRef, line: int) -> None:
        self.result.defs.append((ref, line))
        if self._cond_depth:
            self.result.cond.add((ref, line))

    def _visit_conditional(self, node: ast.AST) -> None:
        self._cond_depth += 1
        try:
            self.visit(node)
        finally:
            self._cond_depth -= 1

    # -- calls: port reads and writes ----------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        write_target = port_write_target(node)
        if write_target is not None and write_target in self.out_ports:
            # Arguments are evaluated (uses) before the write (def).
            for arg in node.args:
                self.visit(arg)
            for kw in node.keywords:
                self.visit(kw.value)
            self._def(VarRef(RefKind.OUT_PORT, write_target), node.lineno)
            return
        read_target = port_read_target(node)
        if read_target is not None and read_target in self.in_ports:
            self._use(VarRef(RefKind.IN_PORT, read_target), node.lineno)
            for arg in node.args:
                self.visit(arg)
            for kw in node.keywords:
                self.visit(kw.value)
            return
        # Ordinary call: don't treat the callee attribute chain as a
        # member use (``self.helper()``), but do visit a non-trivial
        # callee expression and all arguments.
        if isinstance(node.func, ast.Attribute):
            if self_attribute(node.func) is None:
                self.visit(node.func.value)
        elif not isinstance(node.func, ast.Name):
            self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    # -- attributes: members (and mutations through methods) ------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self_attribute(node)
        if attr is not None:
            if attr in self.in_ports or attr in self.out_ports:
                # Bare port attribute access (e.g. passing the port to a
                # helper): neither def nor use at this level.
                return
            if attr in KERNEL_ATTRS:
                return
            if isinstance(node.ctx, ast.Store):
                self._def(VarRef(RefKind.MEMBER, attr), node.lineno)
            elif isinstance(node.ctx, ast.Load):
                self._use(VarRef(RefKind.MEMBER, attr), node.lineno)
            elif isinstance(node.ctx, ast.Del):
                self._def(VarRef(RefKind.MEMBER, attr), node.lineno)
            return
        self.generic_visit(node)

    # -- names: locals ----------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "self":
            return
        if node.id not in self.local_names:
            # Globals, builtins, imported helpers: not model state.
            return
        ref = VarRef(RefKind.LOCAL, node.id)
        if isinstance(node.ctx, ast.Store):
            self._def(ref, node.lineno)
        elif isinstance(node.ctx, ast.Load):
            self._use(ref, node.lineno)
        elif isinstance(node.ctx, ast.Del):
            self._def(ref, node.lineno)

    # -- assignment forms: ensure value is visited before targets -----------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self.visit(node.target)
        # A bare annotation (``x: int``) neither defines nor uses.

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``x += e`` both uses and defines x.
        self.visit(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            if target.id in self.local_names:
                ref = VarRef(RefKind.LOCAL, target.id)
                self._use(ref, target.lineno)
                self._def(ref, target.lineno)
            return
        attr = self_attribute(target)
        if attr is not None and attr not in KERNEL_ATTRS:
            ref = VarRef(RefKind.MEMBER, attr)
            self._use(ref, target.lineno)
            self._def(ref, target.lineno)
            return
        self.visit(target)

    # -- conditionally-evaluated expression contexts ---------------------------

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        # ``a and b``: only the first operand is guaranteed to evaluate.
        self.visit(node.values[0])
        for value in node.values[1:]:
            self._visit_conditional(value)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        # The test always evaluates; exactly one arm does.
        self.visit(node.test)
        self._visit_conditional(node.body)
        self._visit_conditional(node.orelse)

    def _visit_comprehension(self, node: ast.AST) -> None:
        # A comprehension body/conditions may run zero times; treat every
        # occurrence inside as conditional (the outermost iterable does
        # evaluate, but over-marking is the safe direction).
        self._visit_conditional_children(node)

    def _visit_conditional_children(self, node: ast.AST) -> None:
        self._cond_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._cond_depth -= 1

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested function definitions are opaque to the analysis.
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef


def extract(
    fragment: ast.AST,
    in_ports: Set[str],
    out_ports: Set[str],
    local_names: Set[str],
) -> DefUse:
    """Extract all defs/uses from ``fragment``.

    ``local_names`` is the set of names assigned anywhere in the
    enclosing function (see
    :func:`repro.analysis.astutils.assigned_local_names`); name loads
    outside it are treated as globals/builtins and ignored.
    """
    extractor = _Extractor(in_ports, out_ports, local_names)
    extractor.visit(fragment)
    return extractor.result
