"""Rule family 6 — durable-write hygiene.

The durable storage engine only works if every mutation of hard state
flows through the storage-backed mutators that journal it: the node's
log may only be mutated (``append_new`` / ``try_append`` / ``compact`` /
``install_snapshot``) from the designated methods whose persist barriers
cover the write, and ``self.snapshot`` may only be assigned where a
``storage.save_snapshot`` precedes it.  A mutation anywhere else writes
state the WAL never sees — it would survive in memory and silently
vanish at the next crash, which is precisely the bug class the
crash-point fuzzer exists to catch *after* the fact.  This rule catches
it before.

``durable-write-hygiene`` flags, across the whole scan:

* calls to a restricted log-mutator (``<x>.log.append_new(...)`` or via
  the hot-path alias ``log = self.log; log.append_new(...)``) outside
  the configured owner methods,
* assignments to a ``.snapshot`` attribute outside the configured
  snapshot writers, and
* writes to a log entry's cached WAL record (``x._wal = ...``,
  ``setattr(x, "_wal", ...)``, ``object.__setattr__(x, "_wal", ...)``)
  outside the one storage function that encodes it — every replica's
  WAL shares that record, so a second writer corrupts all of them.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.repolint.astutil import iter_functions
from tools.repolint.config import RepolintConfig
from tools.repolint.engine import FileContext, Finding, Rule

__all__ = ["DurableWriteRule"]


class DurableWriteRule(Rule):
    name = "durable-write-hygiene"
    description = (
        "hard-state mutations (log mutators, snapshot writes) may only "
        "happen inside designated storage-backed methods"
    )

    def __init__(self, config: RepolintConfig) -> None:
        self.config = config

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        mutators = self.config.durable_log_mutators
        snap_writers = self.config.durable_snapshot_writers
        slot = self.config.entry_record_slot
        record_writer = self.config.entry_record_writer
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

        def record_write(node: ast.AST) -> Iterable[Finding]:
            qual = qualname_at(node.lineno)  # type: ignore[attr-defined]
            if (ctx.modpath, qual) == record_writer:
                return
            where = f"in {qual}" if qual else "at module level"
            yield ctx.finding(
                self.name,
                node,
                f"write to the entry's cached WAL record {slot!r} {where} — "
                f"only {record_writer[1]} in {record_writer[0]} may (every "
                "replica shares the record)",
                symbol=slot,
            )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                if _setattr_name(node) == slot:
                    yield from record_write(node)
                    continue
                method = _log_mutator_call(node)
                if method is None or method not in mutators:
                    continue
                qual = qualname_at(node.lineno)
                if qual in mutators[method]:
                    continue
                where = f"in {qual}" if qual else "at module level"
                allowed = ", ".join(sorted(mutators[method]))
                yield ctx.finding(
                    self.name,
                    node,
                    f"log mutator {method!r} called {where} — only "
                    f"[{allowed}] may mutate the durable log",
                    symbol=method,
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    list(node.targets)
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == slot:
                        yield from record_write(node)
                    if not (
                        isinstance(target, ast.Attribute)
                        and target.attr == "snapshot"
                    ):
                        continue
                    qual = qualname_at(node.lineno)
                    if qual in snap_writers:
                        continue
                    where = f"in {qual}" if qual else "at module level"
                    allowed = ", ".join(sorted(snap_writers))
                    yield ctx.finding(
                        self.name,
                        node,
                        f"write to 'snapshot' {where} — only [{allowed}] "
                        "may install a snapshot (storage.save_snapshot "
                        "must cover it)",
                        symbol="snapshot",
                    )


def _log_mutator_call(call: ast.Call) -> str | None:
    """Name of the restricted log mutator this call invokes, if any.

    Matches ``<expr>.log.<method>(...)`` and the hot-path alias form
    ``log.<method>(...)`` — reads through other receivers never match.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    if isinstance(base, ast.Attribute) and base.attr == "log":
        return func.attr
    if isinstance(base, ast.Name) and base.id == "log":
        return func.attr
    return None


def _setattr_name(call: ast.Call) -> str | None:
    """The constant attribute name a ``setattr(x, "name", v)`` /
    ``<cls>.__setattr__(x, "name", v)`` call writes, if it is one."""
    func = call.func
    is_setattr = (isinstance(func, ast.Name) and func.id == "setattr") or (
        isinstance(func, ast.Attribute) and func.attr == "__setattr__"
    )
    if not is_setattr or len(call.args) < 2:
        return None
    name = call.args[1]
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        return name.value
    return None
