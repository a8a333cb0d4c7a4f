"""Operation histories: what the clients observed, ready for checking.

A history is the client-side ground truth of a run: one :class:`KVOp` per
logical KV operation with its invocation time, completion time (if any)
and observed result.  :class:`OpHistory` is the recorder the
:class:`~repro.raft.client.RaftClient` feeds through its ``history`` hook;
the linearizability checker consumes the finished list.

Completion semantics mirror what a real client can know:

* **completed** — a success response arrived; the operation definitely
  took effect, and its linearization point lies inside
  ``[invoke_ms, return_ms]``.
* **open** — no response (timed out, gave up, or still in flight at the
  end of the run).  The operation *may* have taken effect at any time
  after its invocation, or never; the checker must consider both.  An
  open operation can still be completed by a late response — the tighter
  fact wins.
"""

from __future__ import annotations

import dataclasses
from itertools import starmap
from typing import Any

from repro.raft.state_machine import KVCommand

__all__ = ["KVOp", "OpHistory"]


@dataclasses.dataclass(slots=True)
class KVOp:
    """One logical KV operation as the issuing client saw it.

    Attributes:
        client: issuing client name (each client is sequential).
        req_id: the client's request id (unique per client).
        op: ``"put"`` / ``"get"`` / ``"delete"``.
        key: target key.
        value: the argument of a put (``None`` otherwise).
        invoke_ms: submission time.
        return_ms: success-response time, or ``None`` while open.
        result: the observed result (meaningful only when completed).
    """

    client: str
    req_id: int
    op: str
    key: str
    value: Any
    invoke_ms: float
    return_ms: float | None = None
    result: Any = None

    @property
    def completed(self) -> bool:
        return self.return_ms is not None


class OpHistory:
    """Recorder for client operations (the ``history`` client hook).

    Each invocation appends one flat row of atomic values — the
    :class:`KVOp` fields in order, return time and result ``None`` while
    open — to a single list, and each client has a ``{req_id: offset}``
    dict of ints.  A recorded operation therefore leaves no object for
    the cyclic collector to trace; :meth:`ops` builds the :class:`KVOp`
    list when someone reads it.
    """

    def __init__(self) -> None:
        self._rows: dict[str, dict[int, int]] = {}
        self._flat: list[Any] = []

    # -- client hook protocol ------------------------------------------- #

    def invoke(self, client: str, req_id: int, command: Any, t: float) -> None:
        if not isinstance(command, KVCommand):
            raise TypeError(
                f"history can only record KVCommand ops, got {type(command).__name__}"
            )
        rows = self._rows.get(client)
        if rows is None:
            rows = self._rows[client] = {}
        elif req_id in rows:
            raise ValueError(f"duplicate invocation for {(client, req_id)}")
        flat = self._flat
        rows[req_id] = len(flat)
        flat += (client, req_id, command.op, command.key, command.value, t, None, None)

    def complete(self, client: str, req_id: int, result: Any, t: float) -> None:
        try:
            at = self._rows[client][req_id]
        except KeyError:
            raise KeyError((client, req_id)) from None
        flat = self._flat
        flat[at + _RETURN] = t
        flat[at + _RESULT] = result

    def abandon(self, client: str, req_id: int, t: float) -> None:
        """No-op marker: the op stays open (maybe applied, maybe not)."""
        # The row is already in the open state; nothing to record.  The
        # method exists so the client hook protocol is explicit.
        if req_id not in self._rows.get(client, ()):
            raise KeyError(f"abandon for unknown op {(client, req_id)}")

    # -- inspection ------------------------------------------------------ #

    def ops(self) -> list[KVOp]:
        """All operations in invocation order (client then id order ties)."""
        rows = iter(self._flat)
        ops = list(starmap(KVOp, zip(*[rows] * _ROW)))
        # Rows are appended as ops are invoked, on a clock that never runs
        # back, so they are usually in order already; only a same-instant
        # tie the other way round (or a caller's own timestamps) needs the
        # sort.
        if not _in_order(ops):
            ops.sort(key=_invocation_order)
        return ops

    def completed_ops(self) -> list[KVOp]:
        return [o for o in self.ops() if o.completed]

    def __len__(self) -> int:
        return len(self._flat) // _ROW


#: Fields per row (:class:`KVOp`'s, in order), and the offsets of the
#: two a completion writes.
_ROW = 8
_RETURN = 6
_RESULT = 7


def _invocation_order(op: KVOp) -> tuple[float, str, int]:
    return (op.invoke_ms, op.client, op.req_id)


def _in_order(ops: list[KVOp]) -> bool:
    """Whether ``ops`` already follow ``(invoke_ms, client, req_id)``."""
    for i in range(1, len(ops)):
        prev, op = ops[i - 1], ops[i]
        if prev.invoke_ms < op.invoke_ms:
            continue
        if _invocation_order(op) < _invocation_order(prev):
            return False
    return True
