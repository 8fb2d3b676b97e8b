"""AST instrumentation of ``processing()`` bodies (paper §V).

The instrumenter rewrites a model's processing source so that every
definition and use is paired by the :class:`ProbeRuntime` as it
executes, without changing behaviour:

* every def/use site ``N`` of a tracked local/member is a C-level
  dict/set operation on constants *preallocated at instrumentation
  time* — ``__dft_kN__`` is ``(model, var)``, ``__dft_tN__`` is
  ``(var, model, line)``.  A def statement ``__dft_ld__[__dft_kN__] =
  <line>`` follows every assignment (and opens the body for loop
  targets) and records the running last def; a load becomes
  ``(x, __dft_uh__((__dft_tN__, __dft_ldg__(__dft_kN__))))[0]``, which
  adds the use and its last def to the probe's use hits;
* every port access site ``N`` calls its own accessor, built per
  instance by the probe (:meth:`ProbeRuntime.reader` /
  :meth:`ProbeRuntime.writer`) with the port, the model and the site's
  anchor bound:
  ``self.ip.read(i)``     -> ``__dft_pN__(i)``
  ``self.op.write(v, i)`` -> ``__dft_pN__(v, i)``.
  An input port of an ``OPAQUE_USES`` model anchors its use at the
  port's netlist bind site instead of the read's own line.

All ``<line>`` values are *absolute* file lines, so dynamic events
join directly against the static anchors.  The rewritten function is
compiled in a copy of the original function's globals (plus the probe
bindings) and installed on the module instance via
``register_processing`` — the class and all other instances stay
untouched.

Compilation is memoized per ``(function, ports)`` in
:data:`_CODE_CACHE` — repeated instrumentation (one fresh cluster per
testcase) only pays the ``exec`` of the cached code object.
"""

from __future__ import annotations

import ast
import types
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..analysis.astutils import (
    KERNEL_ATTRS,
    SourceInfo,
    assigned_local_names,
    get_source_info,
    port_read_target,
    port_write_target,
    self_attribute,
)
from ..tdf.module import TdfModule

#: The probe's last-def dict and its ``get``.
LAST_DEF_NAME = "__dft_ld__"
LAST_DEF_GET_NAME = "__dft_ldg__"
#: The probe's use-hit set ``add``.
USE_HIT_NAME = "__dft_uh__"
#: Per-site preallocated ``(model, var)`` keys ``__dft_k<N>__`` and
#: ``(var, model, line)`` use sites ``__dft_t<N>__``.
KEY_PREFIX = "__dft_k"
SITE_PREFIX = "__dft_t"
#: Per-site port accessors ``__dft_p<N>__``.
PORT_PREFIX = "__dft_p"

#: ``(underlying function, in ports, out ports)`` ->
#: ``(code object, function name, site templates, port site templates)``.
#: Site templates are ``(var, line)`` pairs, port site templates
#: ``(is_read, port attribute, line)``, both in emission order; the
#: model name and the ports are bound per instance at exec time.
_CODE_CACHE: Dict[tuple, Tuple[Any, str, tuple, tuple]] = {}


def _load(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Load())


class _Rewriter(ast.NodeTransformer):
    """Expression/statement transformer for one processing body."""

    def __init__(
        self,
        in_ports: Set[str],
        out_ports: Set[str],
        local_names: Set[str],
        line_offset: int,
    ) -> None:
        self.in_ports = in_ports
        self.out_ports = out_ports
        self.local_names = local_names
        self.line_offset = line_offset
        #: ``(var, line)`` per emitted use/def site, in emission order
        #: (site N reads globals ``__dft_k<N>__``/``__dft_t<N>__``).
        self.sites: List[tuple] = []
        #: ``(is_read, port attribute, line)`` per port access site
        #: (site N calls global ``__dft_p<N>__``).
        self.port_sites: List[tuple] = []

    def _abs(self, node: ast.AST) -> int:
        return getattr(node, "lineno", 1) + self.line_offset

    def _new_site(self, var: str, line: int) -> int:
        self.sites.append((var, line))
        return len(self.sites) - 1

    def _u_event(self, var: str, line: int, value_node: ast.expr) -> ast.expr:
        """A use wrapping ``value_node`` (returns its value)."""
        # (value, use_hit((site, last_def_get(key))))[0]: the value is
        # evaluated first, then the use is paired.
        idx = self._new_site(var, line)
        hit = ast.Call(
            func=_load(USE_HIT_NAME),
            args=[
                ast.Tuple(
                    elts=[
                        _load(f"{SITE_PREFIX}{idx}__"),
                        ast.Call(
                            func=_load(LAST_DEF_GET_NAME),
                            args=[_load(f"{KEY_PREFIX}{idx}__")],
                            keywords=[],
                        ),
                    ],
                    ctx=ast.Load(),
                )
            ],
            keywords=[],
        )
        return ast.Subscript(
            value=ast.Tuple(elts=[value_node, hit], ctx=ast.Load()),
            slice=ast.Constant(value=0),
            ctx=ast.Load(),
        )

    def _d_stmt(self, var: str, line: int) -> ast.Assign:
        """A definition statement ``__dft_ld__[__dft_kN__] = <line>``."""
        idx = self._new_site(var, line)
        return ast.Assign(
            targets=[
                ast.Subscript(
                    value=_load(LAST_DEF_NAME),
                    slice=_load(f"{KEY_PREFIX}{idx}__"),
                    ctx=ast.Store(),
                )
            ],
            value=ast.Constant(value=line),
        )

    # -- expression wrapping ---------------------------------------------------

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if (
            isinstance(node.ctx, ast.Load)
            and node.id in self.local_names
            and node.id != "self"
        ):
            return ast.copy_location(
                self._u_event(node.id, self._abs(node), node), node
            )
        return node

    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        attr = self_attribute(node)
        if attr is not None:
            if (
                isinstance(node.ctx, ast.Load)
                and attr not in self.in_ports
                and attr not in self.out_ports
                and attr not in KERNEL_ATTRS
            ):
                return ast.copy_location(
                    self._u_event(attr, self._abs(node), node), node
                )
            return node
        node.value = self.visit(node.value)
        return node

    def _port_call(self, is_read: bool, port: str, node: ast.Call) -> ast.Call:
        """``__dft_pN__(<args>)``: the access through site N's accessor."""
        self.port_sites.append((is_read, port, self._abs(node)))
        name = f"{PORT_PREFIX}{len(self.port_sites) - 1}__"
        args = [self.visit(a) for a in node.args]
        return ast.copy_location(
            ast.Call(func=_load(name), args=args, keywords=[]), node
        )

    def visit_Call(self, node: ast.Call) -> ast.AST:
        write_target = port_write_target(node)
        if write_target is not None and write_target in self.out_ports:
            return self._port_call(False, write_target, node)
        read_target = port_read_target(node)
        if read_target is not None and read_target in self.in_ports:
            return self._port_call(True, read_target, node)
        # Ordinary call: transform callee and arguments, but do not wrap
        # a ``self.helper`` method lookup as a member use.
        if isinstance(node.func, ast.Attribute) and self_attribute(node.func) is not None:
            pass
        else:
            node.func = self.visit(node.func)
        node.args = [self.visit(a) for a in node.args]
        node.keywords = [
            ast.keyword(arg=kw.arg, value=self.visit(kw.value)) for kw in node.keywords
        ]
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        return node  # nested functions stay opaque

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    # -- statement rewriting (def probes) -----------------------------------------

    def _def_probes(self, target: ast.AST, line: int) -> list:
        """Probe statements for every tracked name defined by ``target``."""
        probes = []
        for node in ast.walk(target):
            var: Optional[str] = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                if node.id in self.local_names:
                    var = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                attr = self_attribute(node)
                if attr is not None and attr not in KERNEL_ATTRS:
                    var = attr
            if var is not None:
                probes.append(self._d_stmt(var, line))
        return probes

    def visit_Assign(self, node: ast.Assign) -> Any:
        node.value = self.visit(node.value)
        # Subscript/attribute chains inside targets may contain loads.
        new_targets = []
        for target in node.targets:
            if isinstance(target, (ast.Subscript,)):
                target.value = self.visit(target.value)
                target.slice = self.visit(target.slice)
            new_targets.append(target)
        node.targets = new_targets
        probes = []
        for target in node.targets:
            probes.extend(self._def_probes(target, self._abs(node)))
        return [node] + probes

    def visit_AnnAssign(self, node: ast.AnnAssign) -> Any:
        if node.value is None:
            return node
        node.value = self.visit(node.value)
        return [node] + self._def_probes(node.target, self._abs(node))

    def visit_AugAssign(self, node: ast.AugAssign) -> Any:
        line = self._abs(node)
        node.value = self.visit(node.value)
        pre = []
        # ``x += e`` uses x before redefining it.
        if isinstance(node.target, ast.Name) and node.target.id in self.local_names:
            pre.append(
                ast.Expr(
                    value=self._u_event(
                        node.target.id,
                        line,
                        ast.Name(id=node.target.id, ctx=ast.Load()),
                    )
                )
            )
        else:
            attr = self_attribute(node.target)
            if attr is not None and attr not in KERNEL_ATTRS:
                pre.append(
                    ast.Expr(
                        value=self._u_event(
                            attr,
                            line,
                            ast.Attribute(
                                value=_load("self"), attr=attr, ctx=ast.Load()
                            ),
                        )
                    )
                )
        return pre + [node] + self._def_probes(node.target, line)

    def visit_For(self, node: ast.For) -> Any:
        node.iter = self.visit(node.iter)
        probes = self._def_probes(node.target, self._abs(node))
        node.body = probes + [self.visit(s) for s in node.body]
        node.body = _flatten(node.body)
        node.orelse = _flatten([self.visit(s) for s in node.orelse])
        return node

    def visit_With(self, node: ast.With) -> Any:
        probes = []
        for item in node.items:
            item.context_expr = self.visit(item.context_expr)
            if item.optional_vars is not None:
                probes.extend(self._def_probes(item.optional_vars, self._abs(node)))
        node.body = _flatten(probes + [self.visit(s) for s in node.body])
        return node

    def generic_visit(self, node: ast.AST) -> ast.AST:
        node = super().generic_visit(node)
        # Statement bodies may now contain [stmt, probe, ...] lists from
        # the def-probe insertion; flatten them.  Expression nodes like
        # IfExp also have a ``body`` attribute, but not as a list.
        for attr in ("body", "orelse", "finalbody"):
            value = getattr(node, attr, None)
            if isinstance(value, list):
                setattr(node, attr, _flatten(value))
        return node


def _flatten(stmts: list) -> list:
    flat = []
    for s in stmts:
        if isinstance(s, list):
            flat.extend(s)
        else:
            flat.append(s)
    return flat


def compile_processing_ast(func: ast.FunctionDef, info: SourceInfo) -> Any:
    """Compile a (possibly rewritten) processing ``FunctionDef``.

    Finalises the tree the way every processing rewrite needs it:
    decorators dropped, locations fixed, line numbers shifted back to
    the original file so tracebacks (and the def/use anchors) point at
    real source lines.  Shared by the instrumenter and the mutation
    operators (:mod:`repro.mutation`), which splice a mutated body into
    the very same pipeline.
    """
    func.decorator_list = []
    tree = ast.Module(body=[func], type_ignores=[])
    ast.fix_missing_locations(tree)
    ast.increment_lineno(tree, info.line_offset)
    return compile(tree, info.filename, "exec")


def install_processing_ast(
    module: TdfModule,
    code: Any,
    func_name: str,
    extra_globals: Optional[Dict[str, Any]] = None,
) -> Optional[Callable[[], None]]:
    """Exec a compiled processing body and register it on ``module``.

    The code object runs in a *copy* of the original function's globals
    (optionally extended with ``extra_globals``, e.g. the probe
    bindings), so the class and all other instances stay untouched.
    Returns the previous processing registration for later restore.
    """
    previous = module._processing_fn
    fn = module.resolved_processing()
    underlying = fn.__func__ if isinstance(fn, types.MethodType) else fn
    namespace = dict(getattr(underlying, "__globals__", {}))
    if extra_globals:
        namespace.update(extra_globals)
    exec(code, namespace)
    new_fn = namespace[func_name]
    module.register_processing(types.MethodType(new_fn, module))
    return previous


def instrument_processing(module: TdfModule, probe: Any) -> Callable[[], None]:
    """Instrument ``module``'s processing callable and install it.

    Returns the previous processing callable registration so the caller
    can restore it (``None`` when the plain method was in use).

    The expensive part — source recovery, AST rewrite, ``compile()`` —
    is memoized on the *underlying function* (shared by every instance
    of a class and every testcase), keyed with the port-name sets that
    shape the rewrite.  Per call only a fresh ``exec`` binds the
    probe's pairing state, the per-site constants carrying this
    instance's model name and the per-site port accessors.  The
    accessors bind the netlist (signal, driver, static site), so the
    ports must be bound and the probe's static sites registered first.
    """
    original_registration = module._processing_fn
    fn = module.resolved_processing()
    underlying = fn.__func__ if isinstance(fn, types.MethodType) else fn
    in_ports = frozenset(p.name for p in module.in_ports())
    out_ports = frozenset(p.name for p in module.out_ports())
    cache_key = (underlying, in_ports, out_ports)
    cached = _CODE_CACHE.get(cache_key)
    if cached is None:
        info = get_source_info(fn)
        local_names = assigned_local_names(info.func)
        rewriter = _Rewriter(
            set(in_ports), set(out_ports), local_names, info.line_offset
        )
        func = info.func
        # Rewrite the body directly: visit_FunctionDef keeps *nested*
        # functions opaque, so the top-level def must not go through it.
        func.body = _flatten([rewriter.visit(stmt) for stmt in func.body])
        code = compile_processing_ast(func, info)
        cached = (
            code, func.name, tuple(rewriter.sites), tuple(rewriter.port_sites)
        )
        _CODE_CACHE[cache_key] = cached

    code, func_name, sites, port_sites = cached
    extra: Dict[str, Any] = {
        LAST_DEF_NAME: probe.last_def,
        LAST_DEF_GET_NAME: probe.last_def.get,
        USE_HIT_NAME: probe.use_hits.add,
    }
    model = module.name
    for idx, (var, line) in enumerate(sites):
        extra[f"{KEY_PREFIX}{idx}__"] = (model, var)
        extra[f"{SITE_PREFIX}{idx}__"] = (var, model, line)
    for idx, (is_read, attr, line) in enumerate(port_sites):
        port = getattr(module, attr)
        if not is_read:
            accessor = probe.writer(port, (port.name, model, line))
        elif module.OPAQUE_USES and port.bind_site is not None:
            accessor = probe.reader(
                port, model, (probe.cluster_name, port.bind_site.lineno)
            )
        else:
            accessor = probe.reader(port, model, (model, line))
        extra[f"{PORT_PREFIX}{idx}__"] = accessor
    install_processing_ast(module, code, func_name, extra)
    return original_registration


def restore_processing(module: TdfModule, previous: Optional[Callable[[], None]]) -> None:
    """Undo :func:`instrument_processing`."""
    module._processing_fn = previous
