"""Rule family 10 — every hand-synced inline copy names the test that pins it.

A hot path sometimes carries an inline copy of a reference function to
save a call frame.  The two bodies must agree, and nothing but a test
comparing them keeps them agreeing: a copy whose comment says "keep in
sync" and nothing else is how a bug fixed in one body survives in the
other.

``inline-copy-pinned`` flags every comment block (consecutive comment
lines) matching ``Inline(d| copy)? of|keep in sync`` that does not name
an existing test as ``tests/<file>.py::<test>``.  The path resolves
through ``knob_user_roots`` — the caller directories beside the scanned
root that ``config-knob-liveness`` reads — and the file must define a
``test*`` function (or ``Test*`` class) of that name.  Name the test, or
delete the copy and call the reference.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Iterator

from tools.repolint.config import RepolintConfig
from tools.repolint.engine import FileContext, Finding, Rule

__all__ = ["InlineCopyPinnedRule"]

_MARK_RE = re.compile(r"Inline(d| copy)? of|keep in sync", re.IGNORECASE)
_TEST_REF_RE = re.compile(r"\b(\w+(?:/\w+)*\.py)::([Tt]est\w*)")


def _comment_blocks(source: str) -> Iterator[tuple[int, str]]:
    """``(first line, joined text)`` of each run of comments on consecutive
    lines."""
    start = prev = 0
    texts: list[str] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            line = tok.start[0]
            if texts and line != prev + 1:
                yield start, " ".join(texts)
                texts = []
            if not texts:
                start = line
            texts.append(tok.string.lstrip("#").strip())
            prev = line
    except (tokenize.TokenError, SyntaxError):
        return  # not this rule's business
    if texts:
        yield start, " ".join(texts)


class InlineCopyPinnedRule(Rule):
    name = "inline-copy-pinned"
    description = "an inline copy's comment names the test pinning it to its reference"

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config
        self._defined: dict[Path, frozenset[str]] = {}

    def _test_defined(self, root: Path, path: str, test: str) -> bool:
        top, _, rest = path.partition("/")
        for rel in self.config.knob_user_roots:
            base = root / rel
            if base.name != top or not (base / rest).is_file():
                continue
            file = (base / rest).resolve()
            if file not in self._defined:
                try:
                    tree = ast.parse(file.read_text(encoding="utf-8"))
                except SyntaxError:
                    tree = ast.Module(body=[], type_ignores=[])
                self._defined[file] = frozenset(
                    node.name
                    for node in ast.walk(tree)
                    if isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    )
                )
            if test in self._defined[file]:
                return True
        return False

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for line, text in _comment_blocks(ctx.source):
            mark = _MARK_RE.search(text)
            if mark is None:
                continue
            refs = _TEST_REF_RE.findall(text)
            if not refs:
                yield ctx.finding(
                    self.name,
                    line,
                    f"'{mark.group(0)}' comment names no tests/<file>.py::<test> "
                    f"pinning the copy to its reference — name the test, or "
                    f"call the reference",
                )
            for path, test in refs:
                if not self._test_defined(ctx.root, path, test):
                    yield ctx.finding(
                        self.name,
                        line,
                        f"'{mark.group(0)}' comment names {path}::{test}, which "
                        f"does not exist",
                        symbol=f"{path}::{test}",
                    )
