"""Rule family 8 — config-knob liveness.

Every field of the protocol config dataclass is an independently
settable option, and each one doubles the configurations tests and
benchmarks must cover.  A field nobody ever sets is an unexercised
branch behind a name: seven of them accumulated in ``RaftConfig`` before
anyone grepped.

``config-knob-liveness`` flags a field of the configured dataclass that
no call to that class passes by keyword — in any scanned file other
than the defining module, or in any ``.py`` file under the configured
user roots (tests, benchmarks and examples count: a knob only a test
turns still runs its path).  Delete the field and make its one value a
constant, or add the caller that needs it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.repolint.config import RepolintConfig
from tools.repolint.engine import Finding, Project, Rule, iter_python_files

__all__ = ["ConfigKnobLivenessRule"]


class ConfigKnobLivenessRule(Rule):
    name = "config-knob-liveness"
    description = "every protocol-config field is set by keyword somewhere"

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    def _keywords_set(self, tree: ast.AST) -> set[str]:
        """Keyword names passed to calls of the config class in ``tree``."""
        cls = self.config.knob_config_class
        used: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if callee == cls:
                used.update(kw.arg for kw in node.keywords if kw.arg is not None)
        return used

    def finish(self, project: Project) -> Iterable[Finding]:
        cfg = self.config
        ctx = project.file(cfg.knob_config_modpath)
        if ctx is None:
            return  # family not exercised by this tree
        fields: dict[str, ast.AnnAssign] = {}
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == cfg.knob_config_class:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        fields[stmt.target.id] = stmt
        if not fields:
            yield ctx.finding(
                self.name,
                1,
                f"no {cfg.knob_config_class} fields found in "
                f"{cfg.knob_config_modpath} — repolint cannot verify knob "
                f"liveness",
            )
            return

        used: set[str] = set()
        for other in project.files:
            if other is not ctx:
                used |= self._keywords_set(other.tree)
        for rel in cfg.knob_user_roots:
            root = project.root / rel
            if not root.is_dir():
                continue
            for path in iter_python_files(root):
                source = path.read_text(encoding="utf-8")
                if cfg.knob_config_class not in source:
                    continue
                try:
                    used |= self._keywords_set(ast.parse(source))
                except SyntaxError:
                    continue  # not this rule's business

        for name in sorted(set(fields) - used):
            yield ctx.finding(
                self.name,
                fields[name],
                f"{cfg.knob_config_class}.{name} is never passed by keyword "
                f"outside {cfg.knob_config_modpath} — an option nobody sets "
                f"is an untested branch: delete it (keep its value as a "
                f"constant) or add the caller that needs it",
                symbol=name,
            )
