"""Replicated state machines: the protocol and the etcd-style KV store.

SMR (§II-A): every server applies committed log entries in index order to
an initially identical state machine, so all copies stay consistent.  The
KV store is the service the paper's testbed runs (etcd is "a widely used
key-value store", §III-E).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Protocol, runtime_checkable

__all__ = [
    "StateMachine",
    "KVStore",
    "KVCommand",
    "kv_put",
    "kv_get",
    "kv_delete",
]


@runtime_checkable
class StateMachine(Protocol):
    """What Raft needs from an application state machine."""

    def apply(self, command: Any) -> Any:
        """Apply one committed command; returns the client-visible result.

        Must be deterministic: identical command sequences must yield
        identical states and results on every replica.
        """
        ...

    def reset(self) -> None:
        """Drop all state (crash-recovery replays the log from scratch)."""
        ...

    def snapshot(self) -> Any:
        """A self-contained, immutable image of the current state.

        The image must be restorable via :meth:`restore` and independent
        of the live state (mutating the machine afterwards must not change
        an already-taken snapshot) — it is shipped to lagging followers in
        InstallSnapshot RPCs and replayed by crash-recovery.
        """
        ...

    def restore(self, data: Any) -> None:
        """Replace all state with a previously taken :meth:`snapshot`."""
        ...

    def read(self, command: Any) -> Any:
        """Evaluate a read-only command against current state without
        applying it (the ReadIndex/lease fast path serves reads here,
        bypassing the log).  Must not mutate any state — including
        bookkeeping like apply counters — and must equal what
        :meth:`apply` would return for the same command at this state.
        """
        ...


@dataclasses.dataclass(slots=True, unsafe_hash=True, repr=False)
class KVCommand:
    """A key-value operation: ``put``, ``get`` or ``delete``.

    Slotted and compared field-wise like the client RPCs that carry it
    (one per client op; see :mod:`repro.raft.messages`); immutable by
    convention.  The repr prints what the generated one would, without
    its recursion guard: :mod:`repro.storage.simdisk` writes it into every
    WAL append record.
    """

    op: str
    key: str
    value: Any = None

    def __repr__(self) -> str:
        return f"KVCommand(op={self.op!r}, key={self.key!r}, value={self.value!r})"


def kv_put(key: str, value: Any) -> KVCommand:
    return KVCommand("put", key, value)


def kv_get(key: str) -> KVCommand:
    return KVCommand("get", key)


def kv_delete(key: str) -> KVCommand:
    return KVCommand("delete", key)


class KVStore:
    """A deterministic in-memory key-value state machine.

    ``get`` goes through the log too (linearizable reads via log
    serialization — the simplest correct read path; etcd's read-index
    optimisation is out of scope for the paper's experiments).
    """

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self.applied_count = 0

    def apply(self, command: Any) -> Any:
        if command is None:  # leader no-op entry
            return None
        if not isinstance(command, KVCommand):
            raise TypeError(f"KVStore cannot apply {type(command).__name__}")
        self.applied_count += 1
        if command.op == "put":
            self._data[command.key] = command.value
            return command.value
        if command.op == "get":
            return self._data.get(command.key)
        if command.op == "delete":
            return self._data.pop(command.key, None)
        raise ValueError(f"unknown KV op {command.op!r}")

    def reset(self) -> None:
        self._data.clear()
        self.applied_count = 0

    def snapshot(self) -> dict[str, Any]:
        """Copy of the full KV map (also the InstallSnapshot payload)."""
        return dict(self._data)

    def restore(self, data: dict[str, Any]) -> None:
        """Adopt a :meth:`snapshot` image (copied; the image stays intact)."""
        self._data = dict(data)

    def read(self, command: Any) -> Any:
        """Serve a ``get`` against current state without applying it.

        Unlike :meth:`apply` this leaves ``applied_count`` untouched —
        fast-path reads are not log entries and must not perturb replica
        bookkeeping (replicas would diverge on a counter the snapshot
        carries nowhere).
        """
        if not isinstance(command, KVCommand) or command.op != "get":
            raise ValueError(f"read path only serves 'get', got {command!r}")
        return self._data.get(command.key)

    # -- local inspection (not linearizable; tests/examples only) ---------- #

    def peek(self, key: str) -> Any:
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)
