"""Rule family 5 — protocol-state hygiene.

``current_term`` and ``voted_for`` are Raft's *persistent* state: every
write is a durability point, and the safety argument (§5.2/§5.4 of the
paper) only holds when term adoption and vote granting go through the
designated transitions.  The membership record (``ConfigLog._base`` /
``_changes``) and the node's one ``_quorum`` have the same property for
reconfiguration safety.

``state-protected-write`` flags any assignment (plain, augmented or
through a subscript, e.g. ``node._configs._changes[-1] = ...``) to a protected
attribute outside its configured owner methods — including writes from
*other* modules reaching into a node.  Deliberate corruption (the fuzz
bug injectors) carries per-line suppressions, which is exactly the
audit trail we want for such writes.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.repolint.astutil import iter_functions
from tools.repolint.config import RepolintConfig
from tools.repolint.engine import FileContext, Finding, Rule

__all__ = ["ProtectedStateRule"]


class ProtectedStateRule(Rule):
    name = "state-protected-write"
    description = (
        "protected protocol state may only be written by its designated "
        "mutation methods"
    )

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        protected = self.config.protected_state
        if not protected:
            return
        # Map every line span to its enclosing function qualname, so a
        # write knows whether it is inside an allowed mutator.
        spans: list[tuple[int, int, str]] = []
        for qual, fn in iter_functions(ctx.tree):
            spans.append((fn.lineno, fn.end_lineno or fn.lineno, qual))
        spans.sort()

        def qualname_at(line: int) -> str:
            best = ""
            for lo, hi, qual in spans:
                if lo <= line <= hi:
                    best = qual  # innermost wins: spans sorted by start
            return best

        for node in ast.walk(ctx.tree):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for attr in _written_attrs(target):
                    if attr not in protected:
                        continue
                    qual = qualname_at(node.lineno)
                    if qual in protected[attr]:
                        continue
                    where = f"in {qual}" if qual else "at module level"
                    allowed = ", ".join(sorted(protected[attr]))
                    yield ctx.finding(
                        self.name,
                        node,
                        f"write to protected state {attr!r} {where} — only "
                        f"[{allowed}] may mutate it",
                        symbol=attr,
                    )


def _written_attrs(target: ast.AST) -> list[str]:
    """Attribute names a store target writes.

    ``x.current_term = ...`` and ``x._changes[-1] = ...`` both count;
    tuple targets are unpacked recursively.
    """
    if isinstance(target, ast.Attribute):
        return [target.attr]
    if isinstance(target, ast.Subscript) and isinstance(
        target.value, ast.Attribute
    ):
        return [target.value.attr]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_written_attrs(elt))
        return out
    return []
