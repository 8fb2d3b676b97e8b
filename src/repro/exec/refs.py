"""Importable references: ``"package.module:attr"`` strings.

A shard task (:mod:`repro.exec.task`) must cross a process or a host
boundary, and cluster factories and testcases cannot: netlists close
over lambdas and stimuli are arbitrary callables.  So a task names the
factory and the suite builder by reference instead, and whoever runs
it — a pool process or a remote worker — imports them and builds its
own instances.  This is the same fresh-instance contract the serial
runner already relies on (see
:data:`repro.instrument.runner.ClusterFactory`), stretched across a
process boundary.
"""

from __future__ import annotations

import importlib
from typing import Any


def resolve_ref(ref: str) -> Any:
    """Import ``"package.module:attr"`` and return the attribute.

    Dotted attribute paths (``module:Class.method``) are followed.
    Raises :class:`ValueError` for a malformed reference and lets
    :class:`ImportError` / :class:`AttributeError` propagate for a
    well-formed one that does not resolve.
    """
    module_name, sep, attr_path = ref.partition(":")
    if not sep or not module_name or not attr_path or ":" in attr_path:
        raise ValueError(
            f"invalid reference {ref!r}: expected 'package.module:attr'"
        )
    target: Any = importlib.import_module(module_name)
    for part in attr_path.split("."):
        target = getattr(target, part)
    return target


def ref_to(obj: Any) -> str:
    """The ``"module:qualname"`` reference of a module-level callable.

    Verifies round-trip resolvability — lambdas, closures and
    interactively defined callables are rejected with a
    :class:`ValueError` since a worker process could never import them.
    """
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise ValueError(
            f"{obj!r} is not an importable module-level callable; "
            f"pass an explicit 'package.module:attr' reference instead"
        )
    ref = f"{module}:{qualname}"
    try:
        resolved = resolve_ref(ref)
    except (ImportError, AttributeError) as exc:
        raise ValueError(f"{obj!r} does not resolve via {ref!r}: {exc}") from exc
    if resolved is not obj:
        raise ValueError(
            f"{ref!r} resolves to a different object than {obj!r}; "
            f"pass an explicit reference instead"
        )
    return ref
