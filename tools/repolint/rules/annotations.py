"""Rule family 9 — annotation floor.

``mypy.ini`` declares ``repro.raft`` and ``repro.sim`` a ``--strict``
island, but mypy is an optional tool (``tests/test_typecheck.py`` skips
without it, and CI installs it in one job only).  What ``--strict`` rests
on can be checked from the syntax tree alone: ``annotation-floor`` flags
any ``def`` in the configured scopes — methods, nested functions and
``*args``/``**kwargs`` included — with an unannotated parameter (a
method's leading ``self``/``cls`` aside) or no return annotation, so the
island cannot grow untyped corners while nobody runs the type checker.
"""

from __future__ import annotations

from typing import Iterable

from tools.repolint.astutil import iter_functions
from tools.repolint.config import RepolintConfig
from tools.repolint.engine import FileContext, Finding, Rule

__all__ = ["AnnotationFloorRule"]


class AnnotationFloorRule(Rule):
    name = "annotation-floor"
    description = (
        "every def in the typed island annotates each parameter and its "
        "return"
    )

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.modpath.startswith(self.config.annotation_scopes):
            return
        for qual, fn in iter_functions(ctx.tree):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            params += [p for p in (a.vararg, a.kwarg) if p is not None]
            missing = [
                p.arg
                for i, p in enumerate(params)
                if p.annotation is None
                and not (i == 0 and p.arg in ("self", "cls"))
            ]
            if fn.returns is None:
                missing.append("return")
            if missing:
                yield ctx.finding(
                    self.name,
                    fn,
                    f"'{qual}' leaves {', '.join(missing)} unannotated — "
                    "repro.raft and repro.sim are the typed island "
                    "(mypy.ini); annotate every parameter and the return",
                    symbol=qual,
                )
