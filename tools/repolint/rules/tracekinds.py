"""Rule family 3 — trace-kind registry.

The event-hooked :class:`SafetyChecker` and every ``of_kind`` analysis
query silently ignore kinds that no one emits — a typo'd kind string
blinds them without failing anything.  This family extracts every
statically-resolvable kind emitted via ``*.record(time, node, kind,
...)`` across the scanned tree and cross-checks three directions
against the **generated registry module**
(``repro/sim/trace_kinds.py``, written by
``python -m tools.repolint --write-trace-registry``):

* ``trace-unregistered-emit`` — an emitted kind is missing from the
  registry (the registry is stale: regenerate it);
* ``trace-stale-registry`` — the registry lists a kind nothing emits
  (dead registry entry, or the last emitter was deleted);
* ``trace-unknown-consume`` — a kind consumed by ``of_kind`` /
  ``of_kinds`` / ``first_after`` / ``last_before`` / ``where(kind=...)``
  or declared in a ``*KINDS*`` module constant has **no emitter** — the
  query can never match;
* ``trace-dynamic-kind`` — a ``record()`` call whose kind argument is
  not a string literal or a resolvable module-level constant.  Route the
  kind through a constant, or suppress with a justification and add the
  runtime kinds to ``extra_trace_kinds`` in the config.

The same extraction feeds the runtime guard: ``SafetyChecker.install``
validates against the generated module.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.repolint.astutil import resolve_str_constant
from tools.repolint.config import RepolintConfig
from tools.repolint.engine import FileContext, Finding, Project, Rule

__all__ = [
    "TraceRegistryRule",
    "extract_emitted_kinds",
    "extract_consumed_kinds",
    "generate_trace_registry",
    "read_registry_module",
]

_CONSUMER_POSITIONAL = {"of_kind", "of_kinds"}
_CONSUMER_KEYWORD = {"first_after", "last_before", "where"}


def _literal_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def extract_emitted_kinds(
    project: Project,
) -> tuple[dict[str, list[tuple[str, int]]], list[tuple[FileContext, ast.Call]]]:
    """All kinds passed to ``*.record(time, node, kind, ...)``.

    Returns ``(kind -> [(modpath, line), ...], dynamic_sites)`` where
    dynamic sites are record calls whose kind could not be resolved.
    """
    emitted: dict[str, list[tuple[str, int]]] = {}
    dynamic: list[tuple[FileContext, ast.Call]] = []
    for ctx in project.files:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"
                and len(node.args) >= 3
            ):
                continue
            kind_arg = node.args[2]
            kind = _literal_str(kind_arg)
            if kind is None and isinstance(kind_arg, ast.Name):
                kind = resolve_str_constant(kind_arg.id, ctx, project)
            if kind is None:
                dynamic.append((ctx, node))
            else:
                emitted.setdefault(kind, []).append((ctx.modpath, node.lineno))
    return emitted, dynamic


def extract_consumed_kinds(
    project: Project,
) -> dict[str, list[tuple[str, int]]]:
    """All kinds the codebase queries or hooks."""
    consumed: dict[str, list[tuple[str, int]]] = {}

    def note(kind: str, ctx: FileContext, line: int) -> None:
        consumed.setdefault(kind, []).append((ctx.modpath, line))

    for ctx in project.files:
        if ctx.modpath == ctx.config.trace_registry_modpath:
            continue  # the registry itself is not a consumer
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                attr = node.func.attr
                if attr in _CONSUMER_POSITIONAL:
                    for arg in node.args:
                        kind = _literal_str(arg)
                        if kind is None and isinstance(arg, ast.Name):
                            kind = resolve_str_constant(arg.id, ctx, project)
                        if kind is not None:
                            note(kind, ctx, node.lineno)
                if attr in _CONSUMER_KEYWORD or attr in _CONSUMER_POSITIONAL:
                    for kw in node.keywords:
                        if kw.arg == "kind":
                            kind = _literal_str(kw.value)
                            if kind is not None:
                                note(kind, ctx, node.lineno)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                # Configured constants like HOOK_KINDS = frozenset({...})
                # declare consumption: the safety checker dispatches on
                # membership rather than via of_kind calls.
                target = (
                    node.targets[0]
                    if isinstance(node, ast.Assign) and node.targets
                    else getattr(node, "target", None)
                )
                if not (
                    isinstance(target, ast.Name)
                    and target.id in ctx.config.trace_kind_constant_names
                ):
                    continue
                value = node.value
                if value is None:
                    continue
                for elt_kind in _collection_of_strings(value):
                    note(elt_kind, ctx, node.lineno)
    return consumed


def _collection_of_strings(value: ast.AST) -> list[str]:
    if isinstance(value, ast.Call) and value.args:
        fn = value.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else ""
        )
        if name in {"frozenset", "set", "tuple", "list"}:
            return _collection_of_strings(value.args[0])
    if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
        out = []
        for elt in value.elts:
            s = _literal_str(elt)
            if s is not None:
                out.append(s)
        return out
    return []


def read_registry_module(ctx: FileContext) -> frozenset[str] | None:
    """Parse ``TRACE_KINDS`` out of the generated registry module."""
    for node in ast.walk(ctx.tree):
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "TRACE_KINDS":
            assert node.value is not None
            return frozenset(_collection_of_strings(node.value))
    return None


_REGISTRY_HEADER = '''"""Generated trace-kind registry — do not edit by hand.

Regenerate with::

    python -m tools.repolint src/ --write-trace-registry

Every kind emitted anywhere under ``src/`` (plus the justified
``extra_trace_kinds`` from ``tools/repolint/config.py``) is listed here.
``SafetyChecker.install`` validates against this set at runtime so a
typo'd kind fails loudly instead of silently blinding a safety hook;
``tools/repolint`` cross-checks it statically on every run.
"""

from __future__ import annotations

__all__ = ["TRACE_KINDS"]

TRACE_KINDS: frozenset[str] = frozenset(
    (
'''


def generate_trace_registry(
    project: Project, config: RepolintConfig
) -> str:
    """Render the registry module from the current extraction."""
    emitted, _dynamic = extract_emitted_kinds(project)
    kinds = sorted(set(emitted) | set(config.extra_trace_kinds))
    body = "".join(f'        "{k}",\n' for k in kinds)
    return _REGISTRY_HEADER + body + "    )\n)\n"


class TraceRegistryRule(Rule):
    name = "trace-registry"
    description = (
        "emitted/consumed trace kinds must agree with the generated "
        "registry module"
    )

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    def finish(self, project: Project) -> Iterable[Finding]:
        cfg = self.config
        registry_ctx = project.file(cfg.trace_registry_modpath)
        emitted, dynamic = extract_emitted_kinds(project)
        consumed = extract_consumed_kinds(project)

        for ctx, call in dynamic:
            yield ctx.finding(
                "trace-dynamic-kind",
                call,
                "record() kind is not a string literal or module-level "
                "constant — unresolvable kinds cannot be registered; "
                "route it through a constant or suppress with a "
                "justification",
            )

        if registry_ctx is None:
            # No registry module in this tree (e.g. a fixture corpus that
            # does not exercise this family): nothing to cross-check.
            return
        registry = read_registry_module(registry_ctx)
        if registry is None:
            yield registry_ctx.finding(
                "trace-registry",
                1,
                "registry module defines no TRACE_KINDS frozenset — "
                "regenerate with --write-trace-registry",
            )
            return

        known = registry | frozenset(cfg.extra_trace_kinds)
        for kind in sorted(set(emitted) - registry):
            modpath, line = emitted[kind][0]
            ctx = project.file(modpath)
            assert ctx is not None
            yield ctx.finding(
                "trace-unregistered-emit",
                line,
                f"trace kind {kind!r} is emitted but missing from the "
                f"registry — run --write-trace-registry",
                symbol=kind,
            )
        expected = set(emitted) | set(cfg.extra_trace_kinds)
        for kind in sorted(registry - expected):
            yield registry_ctx.finding(
                "trace-stale-registry",
                1,
                f"registry lists kind {kind!r} but nothing emits it — "
                f"run --write-trace-registry",
                symbol=kind,
            )
        for kind in sorted(set(consumed) - known):
            modpath, line = consumed[kind][0]
            ctx = project.file(modpath)
            assert ctx is not None
            yield ctx.finding(
                "trace-unknown-consume",
                line,
                f"kind {kind!r} is consumed here but never emitted "
                f"anywhere — the query/hook can never match "
                f"(typo'd kind?)",
                symbol=kind,
            )
