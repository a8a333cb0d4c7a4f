"""Rule family 11 — the cyclic collector's settings belong to the host.

``gc.disable``/``enable``, ``gc.freeze``/``unfreeze`` and
``gc.set_threshold`` change process-wide state: they reach every other
library in the interpreter, outlive the call that made them, and a
threshold is a tuning knob by another name.  Code that feeds the
collector too much fixes that where the objects are made — keep fewer
per-operation objects alive — not by switching the collector off.

``gc-control`` flags every reference to one of those five functions
(called or not, through ``import gc``, an alias or ``from gc import``)
anywhere in the scanned tree.  Reading the collector (``gc.collect``,
``gc.get_objects``, ``gc.callbacks``) stays allowed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.repolint.astutil import ImportMap, dotted_call_name
from tools.repolint.config import RepolintConfig
from tools.repolint.engine import FileContext, Finding, Rule

__all__ = ["CollectorControlRule"]

#: The functions that change the collector's process-wide state.
_CONTROLS = frozenset(
    {"gc.disable", "gc.enable", "gc.freeze", "gc.unfreeze", "gc.set_threshold"}
)


class CollectorControlRule(Rule):
    name = "gc-control"
    description = (
        "no gc.disable/enable/freeze/unfreeze/set_threshold: the "
        "collector's settings belong to the host process"
    )

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            dotted = dotted_call_name(node, imports)
            if dotted in _CONTROLS:
                yield ctx.finding(
                    self.name,
                    node,
                    f"{dotted} changes the whole process's collector — "
                    f"keep fewer objects alive instead",
                    symbol=dotted,
                )
