"""Rule family 1 — determinism.

Simulation code must be a pure function of its seeds: same seed, same
event total order, same trace digest for any ``REPRO_JOBS``.  Two rules
enforce that:

* ``determinism-forbidden-call`` — wall clocks (``time.time``,
  ``time.monotonic``, ``time.perf_counter``, ``datetime.now`` /
  ``utcnow``), ambient entropy (``os.urandom``, ``uuid.uuid4``), the
  stdlib ``random`` module, and **unseeded** ``np.random.default_rng()``
  are banned inside the simulation scopes.  Virtual time comes from the
  event loop; randomness comes from named, seeded
  :class:`~repro.sim.rng.RngRegistry` streams.
* ``determinism-unordered-iter`` — iterating a ``set``/``frozenset``
  (hash order: varies with ``PYTHONHASHSEED``) or a ``dict`` view
  (insertion order: deterministic only if every insertion is) is flagged
  when the loop body schedules events, emits trace records or sends
  messages, unless the iterable is wrapped in ``sorted(...)``.
* ``determinism-link-stream`` — a link serves pre-drawn jitter from a
  block while its raw generator sits *ahead* of the scalar position, so
  the generator and the block (``link._rng`` / ``_block`` / ``_pos`` /
  ``_block_state``) may be touched only by ``Link`` itself and by
  ``Network.transmit``.  Everyone else reads ``link.rng``, which rewinds
  first; a draw from the raw generator would silently fork the stream.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.repolint.astutil import (
    ImportMap,
    dotted_call_name,
    iter_functions,
    set_dict_attrs,
)
from tools.repolint.config import RepolintConfig
from tools.repolint.engine import FileContext, Finding, Rule

__all__ = [
    "ForbiddenNondeterminismRule",
    "UnorderedIterationRule",
    "LinkStreamRule",
]

#: Dotted callables that read ambient time/entropy.
_FORBIDDEN_CALLS: dict[str, str] = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "wall clock",
    "time.monotonic_ns": "wall clock",
    "time.perf_counter": "wall clock",
    "time.perf_counter_ns": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "ambient entropy",
    "uuid.uuid4": "ambient entropy",
    "uuid.uuid1": "ambient entropy",
    "secrets.token_bytes": "ambient entropy",
    "secrets.token_hex": "ambient entropy",
}

#: Modules whose import alone is banned in simulation scopes.
_FORBIDDEN_MODULES = {"random", "secrets"}


def _in_scope(ctx: FileContext) -> bool:
    return any(
        ctx.modpath.startswith(scope)
        for scope in ctx.config.determinism_scopes
    )


class ForbiddenNondeterminismRule(Rule):
    name = "determinism-forbidden-call"
    description = (
        "no wall clocks, stdlib random, os.urandom or unseeded "
        "default_rng() in simulation code"
    )

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not _in_scope(ctx):
            return
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _FORBIDDEN_MODULES:
                        yield ctx.finding(
                            self.name,
                            node,
                            f"import of nondeterministic module "
                            f"{root!r} (use a seeded RngRegistry stream)",
                            symbol=root,
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                if root in _FORBIDDEN_MODULES:
                    yield ctx.finding(
                        self.name,
                        node,
                        f"import from nondeterministic module "
                        f"{root!r} (use a seeded RngRegistry stream)",
                        symbol=root,
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_call_name(node.func, imports)
                if dotted is None:
                    continue
                # Normalize `datetime.now` from `from datetime import
                # datetime` (dotted resolution already yields the full
                # path) and bare-attribute shapes like `dt.now()`.
                reason = _FORBIDDEN_CALLS.get(dotted)
                if reason is None and dotted.endswith(
                    (".datetime.now", ".datetime.utcnow")
                ):
                    reason = "wall clock"
                if reason is not None:
                    yield ctx.finding(
                        self.name,
                        node,
                        f"call to {dotted} ({reason}) — simulation code "
                        f"must use virtual loop time / seeded streams",
                        symbol=dotted,
                    )
                    continue
                if (
                    dotted.endswith(".default_rng")
                    or dotted == "default_rng"
                ) and not node.args and not node.keywords:
                    yield ctx.finding(
                        self.name,
                        node,
                        "unseeded default_rng() — derive the generator "
                        "from a named RngRegistry stream instead",
                        symbol="default_rng",
                    )


_DICT_VIEWS = {"keys", "values", "items"}
_SET_CTORS = {"set", "frozenset"}


class UnorderedIterationRule(Rule):
    name = "determinism-unordered-iter"
    description = (
        "set/dict iteration feeding event scheduling, tracing or sends "
        "must go through sorted()"
    )

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not _in_scope(ctx):
            return
        attr_types = set_dict_attrs(ctx.tree)
        # Walk functions so each loop knows its enclosing class (for
        # `self.<attr>` type lookups).
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                known = attr_types.get(node.name, set())
                for sub in ast.walk(node):
                    yield from self._check_scope(ctx, sub, known)
        # Module-level / free functions (no self attrs to know about).
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    yield from self._check_scope(ctx, sub, set())

    def _check_scope(
        self, ctx: FileContext, node: ast.AST, known_attrs: set[str]
    ) -> Iterable[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if self._is_unordered(node.iter, known_attrs) and _has_sink(
                node.body, self.config
            ):
                yield ctx.finding(
                    self.name,
                    node,
                    f"iteration over {_describe(node.iter)} feeds an "
                    f"order-sensitive sink "
                    f"({_first_sink(node.body, self.config)}); wrap the "
                    f"iterable in sorted()",
                )
        elif isinstance(node, ast.Call):
            # A comprehension passed straight into a sink call: its
            # element order lands in the emitted payload / schedule.
            sink = _call_sink_name(node, self.config)
            if sink is None:
                return
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(
                    arg, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for gen in arg.generators:
                        if self._is_unordered(gen.iter, known_attrs):
                            yield ctx.finding(
                                self.name,
                                arg,
                                f"comprehension over {_describe(gen.iter)} "
                                f"is an argument of order-sensitive sink "
                                f"{sink}(); wrap the iterable in sorted()",
                            )

    def _is_unordered(self, expr: ast.AST, known_attrs: set[str]) -> bool:
        # sorted(...) / sorted copies are ordered by construction.
        if isinstance(expr, ast.Call):
            fn = expr.func
            if isinstance(fn, ast.Name) and fn.id == "sorted":
                return False
            if isinstance(fn, ast.Name) and fn.id in _SET_CTORS:
                return True
            if isinstance(fn, ast.Attribute) and fn.attr in _DICT_VIEWS:
                return True
            return False
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in known_attrs
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr in known_attrs
        return False


class LinkStreamRule(Rule):
    name = "determinism-link-stream"
    description = (
        "a link's raw generator and jitter block may be touched only by "
        "Link itself and Network.transmit; everyone else reads link.rng"
    )

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        slots = self.config.link_stream_slots
        owner_mod = self.config.link_stream_owner
        user_mod, user_fn = self.config.link_stream_user
        if ctx.modpath == owner_mod:
            return
        exempt: set[int] = set()
        if ctx.modpath == user_mod:
            for qual, fn in iter_functions(ctx.tree):
                if qual == user_fn:
                    exempt.update(id(sub) for sub in ast.walk(fn))
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in slots
                # ``self._rng`` is some other class's own field.
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
                and id(node) not in exempt
            ):
                yield ctx.finding(
                    self.name,
                    node,
                    f"`{ast.unparse(node)}` touches a link's raw stream — only "
                    f"{owner_mod} and {user_fn} may; read link.rng (which "
                    "rewinds to the scalar position) instead",
                    symbol=node.attr,
                )


def _call_sink_name(node: ast.Call, config: RepolintConfig) -> str | None:
    fn = node.func
    name = fn.attr if isinstance(fn, ast.Attribute) else (
        fn.id if isinstance(fn, ast.Name) else None
    )
    if name in config.order_sensitive_sinks:
        return name
    return None


def _has_sink(body: list[ast.stmt], config: RepolintConfig) -> bool:
    return _first_sink(body, config) is not None


def _first_sink(body: list[ast.stmt], config: RepolintConfig) -> str | None:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _call_sink_name(node, config)
                if name is not None:
                    return name
    return None


def _describe(expr: ast.AST) -> str:
    try:
        return f"`{ast.unparse(expr)}` (set/dict)"
    except Exception:  # pragma: no cover - unparse is total on 3.11
        return "a set/dict expression"
