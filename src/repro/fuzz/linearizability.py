"""Wing & Gong-style linearizability checking for KV histories.

Given the operation history a run's clients recorded, decide whether
there exists a total order of the operations that (a) respects real time
— an operation that returned before another was invoked must precede it —
and (b) is legal for the KV register spec: a ``get`` returns the latest
``put`` value (``None`` if absent), a ``delete`` returns the value it
removed.

Two structural facts keep the search tractable:

* **per-key independence** — KV operations on different keys commute and
  the store's per-key state is independent, so the history factors into
  one sub-history per key, each checked alone (the standard Knossos /
  Porcupine partitioning optimisation);
* **memoized DFS** — the classic Wing & Gong search over "which ops are
  already linearized" with Lowe's caching: a ``(linearized-set, state)``
  configuration reached twice is pruned the second time.

Open operations (no response observed) are handled soundly: each may be
linearized at any point after its invocation *or* never — both branches
are explored.  The search carries an explicit budget; a history that
exhausts it is reported as undecided rather than silently passed.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable

from repro.fuzz.history import KVOp

__all__ = ["LinearizabilityResult", "check_history", "check_key_history"]

#: Default cap on DFS configurations explored per key.
DEFAULT_BUDGET = 500_000


@dataclasses.dataclass(slots=True, frozen=True)
class LinearizabilityResult:
    """Verdict for one history.

    Attributes:
        ok: the history is linearizable (only meaningful when decided).
        decided: the search finished within budget.
        key: the first offending key (``None`` when ok).
        reason: human-readable description of the failure.
        configs_explored: DFS configurations visited across all keys.
    """

    ok: bool
    decided: bool = True
    key: str | None = None
    reason: str | None = None
    configs_explored: int = 0

    def __bool__(self) -> bool:
        return self.ok and self.decided


def _hashable(value: Any) -> Hashable:
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _apply(state: Any, op: str, value: Any) -> tuple[Any, Any]:
    """KV register spec: ``state, op -> new_state, expected_result``."""
    if op == "put":
        return value, value
    if op == "get":
        return state, state
    if op == "delete":
        return None, state
    raise ValueError(f"unknown KV op {op!r}")


def check_key_history(
    ops: list[KVOp], *, budget: int = DEFAULT_BUDGET
) -> tuple[bool, bool, int]:
    """Check one key's sub-history.

    Returns:
        ``(ok, decided, configs_explored)``.
    """
    n = len(ops)
    if n == 0:
        return True, True, 0
    inv = [o.invoke_ms for o in ops]
    ret = [o.return_ms if o.completed else None for o in ops]
    kind = [o.op for o in ops]
    val = [_hashable(o.value) for o in ops]
    res = [_hashable(o.result) for o in ops]
    completed_mask = 0
    for i, r in enumerate(ret):
        if r is not None:
            completed_mask |= 1 << i

    seen: set[tuple[int, Hashable]] = set()
    explored = 0
    exhausted = False

    def dfs(mask: int, state: Hashable) -> bool:
        nonlocal explored, exhausted
        if mask & completed_mask == completed_mask:
            return True  # every completed op linearized; open ones optional
        cfg = (mask, state)
        if cfg in seen:
            return False
        if explored >= budget:
            exhausted = True
            return False
        seen.add(cfg)
        explored += 1
        # An op is a legal next linearization point iff no *other*
        # unlinearized completed op returned before it was invoked.
        bound = None
        for j in range(n):
            if not (mask >> j) & 1 and ret[j] is not None:
                if bound is None or ret[j] < bound:
                    bound = ret[j]
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            if bound is not None and inv[i] > bound:
                continue
            new_state, expected = _apply(state, kind[i], val[i])
            if ret[i] is not None and expected != res[i]:
                continue  # completed op's observed result contradicts spec
            if dfs(mask | bit, new_state):
                return True
            if exhausted:
                return False
        return False

    ok = dfs(0, None)
    return ok, not exhausted, explored


def check_history(
    ops: list[KVOp],
    *,
    # Test seam: a tiny budget forces the undecided verdict cheaply.
    # repolint: disable=param-knob-liveness
    budget: int = DEFAULT_BUDGET,
) -> LinearizabilityResult:
    """Check a full multi-key history (per-key factorization)."""
    by_key: dict[str, list[KVOp]] = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op)
    total = 0
    for key in sorted(by_key):
        sub = sorted(by_key[key], key=lambda o: (o.invoke_ms, o.client, o.req_id))
        ok, decided, explored = check_key_history(sub, budget=budget)
        total += explored
        if not decided:
            return LinearizabilityResult(
                ok=False,
                decided=False,
                key=key,
                reason=(
                    f"key {key!r}: undecided, search budget exhausted after "
                    f"{explored} configurations ({len(sub)} ops)"
                ),
                configs_explored=total,
            )
        if not ok:
            n_completed = sum(1 for o in sub if o.completed)
            return LinearizabilityResult(
                ok=False,
                key=key,
                reason=(
                    f"key {key!r}: no linearization of {len(sub)} ops "
                    f"({n_completed} completed) is consistent with the KV spec"
                ),
                configs_explored=total,
            )
    return LinearizabilityResult(ok=True, configs_explored=total)
