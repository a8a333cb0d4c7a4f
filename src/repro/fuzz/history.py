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
    """Recorder for client operations (the ``history`` client hook)."""

    def __init__(self) -> None:
        self._ops: dict[tuple[str, int], KVOp] = {}

    # -- client hook protocol ------------------------------------------- #

    def invoke(self, client: str, req_id: int, command: Any, t: float) -> None:
        if not isinstance(command, KVCommand):
            raise TypeError(
                f"history can only record KVCommand ops, got {type(command).__name__}"
            )
        key = (client, req_id)
        if key in self._ops:
            raise ValueError(f"duplicate invocation for {key}")
        self._ops[key] = KVOp(
            client=client,
            req_id=req_id,
            op=command.op,
            key=command.key,
            value=command.value,
            invoke_ms=t,
        )

    def complete(self, client: str, req_id: int, result: Any, t: float) -> None:
        op = self._ops[(client, req_id)]
        op.return_ms = t
        op.result = result

    def abandon(self, client: str, req_id: int, t: float) -> None:
        """No-op marker: the op stays open (maybe applied, maybe not)."""
        # The KVOp is already in the open state; nothing to record.  The
        # method exists so the client hook protocol is explicit.
        if (client, req_id) not in self._ops:
            raise KeyError(f"abandon for unknown op {(client, req_id)}")

    # -- inspection ------------------------------------------------------ #

    def ops(self) -> list[KVOp]:
        """All operations in invocation order (client then id order ties)."""
        return sorted(self._ops.values(), key=lambda o: (o.invoke_ms, o.client, o.req_id))

    def completed_ops(self) -> list[KVOp]:
        return [o for o in self.ops() if o.completed]

    def __len__(self) -> int:
        return len(self._ops)
