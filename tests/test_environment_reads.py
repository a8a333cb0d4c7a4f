"""The library reads one environment variable: ``REPRO_JOBS``.

A result must be a function of the code and its config alone, so no
environment variable may select an experiment's size or behaviour.
``REPRO_JOBS`` is the exception because it only sets the worker count,
which no digest depends on.  This walks every module under ``src/`` and
lists each read of ``os.environ`` or ``os.getenv``, with the function it
sits in and the variable it names.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _key(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> str | None:
    """The variable a read of ``os.environ``/``os.getenv`` names, if a literal."""
    parent = parents.get(node)
    if isinstance(parent, ast.Subscript):  # os.environ["X"]
        lookup = parent.slice
    elif isinstance(parent, ast.Call) and parent.func is node:  # os.getenv("X")
        lookup = parent.args[0] if parent.args else None
    elif isinstance(parent, ast.Attribute) and isinstance(call := parents.get(parent), ast.Call):
        lookup = call.args[0] if call.args else None  # os.environ.get("X")
    else:
        return None
    return lookup.value if isinstance(lookup, ast.Constant) else None


def _environment_reads(path: pathlib.Path) -> list[tuple[str, str, str | None]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = path.relative_to(SRC).as_posix()
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def function(node: ast.AST) -> str:
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return "<module>"

    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [
                (module, function(node), f"import {a.name}")
                for a in node.names
                if a.name in ("environ", "getenv")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            reads.append((module, function(node), _key(node, parents)))
    return reads


def test_the_only_environment_read_is_repro_jobs():
    reads = [read for path in sorted(SRC.rglob("*.py")) for read in _environment_reads(path)]
    assert reads == [("repro/experiments/common.py", "get_jobs", "REPRO_JOBS")]
