"""Rule family 8 — config-knob liveness.

Every field of a config dataclass is an independently settable option,
and each one doubles the configurations tests and benchmarks must cover.
A field nobody ever sets is an unexercised branch behind a name: seven of
them accumulated in ``RaftConfig``, and thirty-odd in the experiment
configs, before anyone grepped.

``config-knob-liveness`` flags a field of a configured dataclass that no
caller outside the defining module passes by keyword — to a call of the
class, or to a ``replace()`` in a file that names the class — in any
scanned file or any ``.py`` file under the configured user roots (tests,
benchmarks and examples count: a knob only a test turns still runs its
path).  ``ClassVar`` attributes are constants, not fields.  Delete the
field and make its one value a constant, or add the caller that needs it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.repolint.config import RepolintConfig
from tools.repolint.engine import Finding, Project, Rule, iter_python_files

__all__ = ["ConfigKnobLivenessRule"]


class ConfigKnobLivenessRule(Rule):
    name = "config-knob-liveness"
    description = "every config-dataclass field is set by keyword somewhere"

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    @staticmethod
    def _keywords_set(source: str, tree: ast.AST | None, cls: str) -> set[str]:
        """Keyword names a file passes to ``cls(...)``, or to ``replace()``
        given that the file names ``cls`` at all."""
        if cls not in source:
            return set()
        try:
            tree = tree if tree is not None else ast.parse(source)
        except SyntaxError:
            return set()  # not this rule's business
        used: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if callee in (cls, "replace"):
                used.update(kw.arg for kw in node.keywords if kw.arg is not None)
        return used

    def finish(self, project: Project) -> Iterable[Finding]:
        outside = [
            path.read_text(encoding="utf-8")
            for rel in self.config.knob_user_roots
            if (root := project.root / rel).is_dir()
            for path in iter_python_files(root)
        ]
        for modpath, cls in self.config.knob_configs:
            yield from self._check(project, modpath, cls, outside)

    def _check(
        self, project: Project, modpath: str, cls: str, outside: list[str]
    ) -> Iterable[Finding]:
        ctx = project.file(modpath)
        if ctx is None:
            return  # family not exercised by this tree
        fields: dict[str, ast.AnnAssign] = {}
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)
                    ):
                        fields[stmt.target.id] = stmt
        if not fields:
            yield ctx.finding(
                self.name,
                1,
                f"no {cls} fields found in {modpath} — repolint cannot "
                f"verify knob liveness",
            )
            return

        used: set[str] = set()
        for other in project.files:
            if other is not ctx:
                used |= self._keywords_set(other.source, other.tree, cls)
        for source in outside:
            used |= self._keywords_set(source, None, cls)

        for name in sorted(set(fields) - used):
            yield ctx.finding(
                self.name,
                fields[name],
                f"{cls}.{name} is never passed by keyword outside {modpath} "
                f"— an option nobody sets is an untested branch: delete it "
                f"(keep its value as a constant) or add the caller that "
                f"needs it",
                symbol=name,
            )
