"""Rule family 8 — knob liveness: config fields and defaulted parameters.

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

``param-knob-liveness`` holds the defaulted parameters of public
module-level functions and public class constructors to the same rule,
tighter: only calls in the scanned tree and under the configured
parameter roots (``benchmarks/``) count, never tests or examples.  A
parameter is live when some call passes it by keyword or by position to
the function or class, resolved through the caller's imports (see
:class:`_CallIndex`), or by keyword through a configured forwarder such
as ``build_scenario(name, names, **overrides)``, which credits the
registry builders the call can select.  A
defaulted parameter nobody passes is a constant with a name in the
signature: make it a module constant, or keep a test seam (a fake, a
budget tests force) behind an inline suppression that says why.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.repolint.config import RepolintConfig
from tools.repolint.engine import (
    FileContext,
    Finding,
    Project,
    Rule,
    iter_python_files,
)

__all__ = ["ConfigKnobLivenessRule", "ParamKnobLivenessRule"]


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


def _module_name(modpath: str) -> str:
    return modpath.removesuffix(".py").replace("/", ".").removesuffix(".__init__")


def _imports(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted target of every absolute import in ``tree``."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.partition(".")[0]
                out[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                out[a.asname or a.name] = f"{node.module}.{a.name}"
    return out


def _registry(ctx: FileContext | None, name: str) -> dict[str, str]:
    """Key -> builder name of the module-level dict literal ``name``."""
    for node in ctx.tree.body if ctx is not None else ():
        if isinstance(node, ast.AnnAssign):
            target = node.target
        elif isinstance(node, ast.Assign):
            target = node.targets[0]
        else:
            continue
        if (
            isinstance(target, ast.Name)
            and target.id == name
            and isinstance(node.value, ast.Dict)
        ):
            return {
                k.value: v.id
                for k, v in zip(node.value.keys, node.value.values)
                if isinstance(k, ast.Constant) and isinstance(v, ast.Name)
            }
    return {}


def _selectable(call: ast.Call, tree: ast.Module) -> set[str]:
    """The registry keys a forwarder call can select: its literal first
    argument, or else every string literal in the calling file."""
    first = call.args[0] if call.args else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return {first.value}
    return {
        n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


_Site = tuple[ast.Call, ast.Module]  # a call and the file it is in


class _CallIndex:
    """Every call of one file, filed under each dotted name it can reach.

    A callee resolves through the file's imports and top-level
    definitions; ``cls`` in a classmethod is its class, ``super().__init__``
    the class's bases, ``functools.partial(f, ...)`` a call of ``f``, and a
    local bound to a name (``profile = a if c else b``) each name it may
    hold.  Anything else (a method, a parameter, a builtin) reaches nothing.
    """

    def __init__(
        self, module: str, tree: ast.Module, calls: dict[str, list[_Site]]
    ) -> None:
        self.module = module
        self.tree = tree
        self.calls = calls
        self.imports = _imports(tree)
        self.local = {
            n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
        }
        self._visit(tree, {}, None, False)

    def resolve(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            if expr.id in self.imports:
                return self.imports[expr.id]
            return f"{self.module}.{expr.id}" if expr.id in self.local else None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in self.imports
        ):
            return f"{self.imports[expr.value.id]}.{expr.attr}"
        return None

    def _callees(
        self,
        func: ast.expr,
        scope: dict[str, ast.expr],
        cls: ast.ClassDef | None,
        in_classmethod: bool,
    ) -> list[str]:
        if isinstance(func, ast.IfExp):
            return [
                *self._callees(func.body, scope, cls, in_classmethod),
                *self._callees(func.orelse, scope, cls, in_classmethod),
            ]
        if isinstance(func, ast.Name):
            if func.id in scope:
                return self._callees(scope[func.id], {}, cls, in_classmethod)
            if func.id == "cls" and in_classmethod and cls is not None:
                return [f"{self.module}.{cls.name}"]
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and cls is not None
        ):
            return [b for b in map(self.resolve, cls.bases) if b is not None]
        name = self.resolve(func)
        return [] if name is None else [name]

    def _visit(
        self,
        node: ast.AST,
        scope: dict[str, ast.expr],
        cls: ast.ClassDef | None,
        in_classmethod: bool,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, {}, child, False)
                continue
            if isinstance(child, ast.FunctionDef):
                decorators = {getattr(d, "id", "") for d in child.decorator_list}
                self._visit(child, {}, cls, "classmethod" in decorators)
                continue
            if (
                isinstance(child, ast.Assign)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
                and isinstance(child.value, (ast.Name, ast.Attribute, ast.IfExp))
            ):
                scope[child.targets[0].id] = child.value
            if isinstance(child, ast.Call):
                call = child
                reached = self._callees(call.func, scope, cls, in_classmethod)
                if reached == ["functools.partial"] and call.args:
                    call = ast.Call(call.args[0], call.args[1:], call.keywords)
                    reached = self._callees(call.func, scope, cls, in_classmethod)
                for callee in reached:
                    self.calls.setdefault(callee, []).append((call, self.tree))
            self._visit(child, scope, cls, in_classmethod)


class ParamKnobLivenessRule(Rule):
    name = "param-knob-liveness"
    description = (
        "every defaulted parameter of a public function or constructor is "
        "passed by some caller outside tests"
    )

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    @staticmethod
    def _targets(tree: ast.Module) -> Iterator[tuple[str, list[str], list[ast.arg]]]:
        """``(name, positional parameter names, defaulted parameters)`` of
        each public module-level function and public class constructor."""
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                fn, skip = node, 0
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                inits = [
                    s
                    for s in node.body
                    if isinstance(s, ast.FunctionDef) and s.name == "__init__"
                ]
                if not inits:
                    continue
                fn, skip = inits[0], 1  # ``self``
            else:
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            yield node.name, [a.arg for a in positional[skip:]], defaulted

    def finish(self, project: Project) -> Iterable[Finding]:
        trees = [(_module_name(ctx.modpath), ctx.tree) for ctx in project.files]
        for rel in self.config.knob_param_user_roots:
            root = project.root / rel
            for path in iter_python_files(root) if root.is_dir() else ():
                try:
                    trees.append(("", ast.parse(path.read_text(encoding="utf-8"))))
                except SyntaxError:
                    continue  # not this rule's business

        calls: dict[str, list[_Site]] = {}
        reexports: dict[str, str] = {}  # ``pkg.name`` -> where it is defined
        for module, tree in trees:
            index = _CallIndex(module, tree, calls)
            if module and project.file(module.replace(".", "/") + "/__init__.py"):
                reexports.update((f"{module}.{k}", v) for k, v in index.imports.items())
        resolved: dict[str, list[_Site]] = {}
        for name, sites in calls.items():
            seen = set()
            while name in reexports and name not in seen:
                seen.add(name)
                name = reexports[name]
            resolved.setdefault(name, []).extend(sites)

        for modpath, forwarder, registry in self.config.knob_param_forwarders:
            module = _module_name(modpath)
            forwarded = resolved.get(f"{module}.{forwarder}", ())
            for key, builder in _registry(project.file(modpath), registry).items():
                for call, tree in forwarded:
                    if key in _selectable(call, tree):
                        # Only keywords travel through ``**overrides``.
                        kw_only = ast.Call(call.func, [], call.keywords)
                        resolved.setdefault(f"{module}.{builder}", []).append(
                            (kw_only, tree)
                        )

        for ctx in project.files:
            module = _module_name(ctx.modpath)
            for name, positional, defaulted in self._targets(ctx.tree):
                passed: set[str] = set()
                for call, _ in resolved.get(f"{module}.{name}", ()):
                    if any(isinstance(a, ast.Starred) for a in call.args):
                        passed.update(positional)
                    else:
                        passed.update(positional[: len(call.args)])
                    passed.update(kw.arg for kw in call.keywords if kw.arg is not None)
                for arg in defaulted:
                    if arg.arg not in passed:
                        yield ctx.finding(
                            self.name,
                            arg,
                            f"{name}({arg.arg}=) is passed by no caller outside "
                            f"tests — a parameter only its default reaches is a "
                            f"constant: make it a module constant, or keep a test "
                            f"seam behind a suppression that says why",
                            symbol=f"{name}.{arg.arg}",
                        )
