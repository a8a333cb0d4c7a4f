"""Raft RPC payloads.

Everything a steady-state cluster exchanges is a hand-written slotted
class with a plain ``__init__`` body: heartbeats (etcd ``MsgHeartbeat``/
``MsgHeartbeatResp``), AppendEntries, the ReadIndex round and — since the
serving fast path made them thousands per simulated second — the client
RPCs (:class:`ClientRequest`, :class:`ClientReadRequest`,
:class:`ClientResponse`).  A frozen dataclass pays ~4× the construction
cost (one ``object.__setattr__`` per field) for immutability the simulator
enforces by convention anyway: payloads are shared between sender and
in-process receiver and must never be mutated; leaders re-send *the same*
cached heartbeat object to a follower while term and commit are stable.
The client RPCs keep the value semantics tests and traces rely on through
explicit ``__eq__``/``__hash__``/``__repr__`` (field-wise, same class only,
the dataclass repr).

Only the two vote pairs stay frozen slotted dataclasses: they are
constructed a handful of times per election, and the extra safety is free
there.

Heartbeats carry the optional Dynatune metadata of §III-C; the baseline
Raft policy leaves those fields ``None``, so the two systems exchange
byte-compatible traffic apart from the metadata — matching the paper's "no
additional communication overheads" framing.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.dynatune.metadata import HeartbeatMeta, HeartbeatResponseMeta
from repro.raft.log import LogEntry

__all__ = [
    "PreVoteRequest",
    "PreVoteResponse",
    "VoteRequest",
    "VoteResponse",
    "AppendEntriesRequest",
    "AppendEntriesResponse",
    "InstallSnapshotRequest",
    "InstallSnapshotResponse",
    "HeartbeatRequest",
    "HeartbeatResponse",
    "ReadIndexProbe",
    "ReadIndexAck",
    "ClientRequest",
    "ClientReadRequest",
    "ClientResponse",
]


@dataclasses.dataclass(slots=True, frozen=True)
class PreVoteRequest:
    """Pre-vote poll: *would* you vote for me at ``term``?

    ``term`` is the candidate's ``currentTerm + 1``; the candidate has not
    actually moved to that term yet, and receivers never adopt it.
    """

    term: int
    candidate: str
    last_log_index: int
    last_log_term: int


@dataclasses.dataclass(slots=True, frozen=True)
class PreVoteResponse:
    term: int  # echoes the proposed term on grant; voter's term on reject
    voter: str
    granted: bool


@dataclasses.dataclass(slots=True, frozen=True)
class VoteRequest:
    term: int
    candidate: str
    last_log_index: int
    last_log_term: int


@dataclasses.dataclass(slots=True, frozen=True)
class VoteResponse:
    term: int
    voter: str
    granted: bool


class AppendEntriesRequest:
    """Replication RPC (hot path — see module docstring).  Immutable by
    convention."""

    __slots__ = (
        "term",
        "leader",
        "prev_log_index",
        "prev_log_term",
        "entries",
        "leader_commit",
    )

    def __init__(
        self,
        term: int,
        leader: str,
        prev_log_index: int,
        prev_log_term: int,
        entries: tuple[LogEntry, ...],
        leader_commit: int,
    ) -> None:
        self.term = term
        self.leader = leader
        self.prev_log_index = prev_log_index
        self.prev_log_term = prev_log_term
        self.entries = entries
        self.leader_commit = leader_commit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AppendEntriesRequest(term={self.term}, leader={self.leader!r}, "
            f"prev=({self.prev_log_index},{self.prev_log_term}), "
            f"n_entries={len(self.entries)}, commit={self.leader_commit})"
        )


class AppendEntriesResponse:
    """Replication ack (hot path).  Immutable by convention.

    ``prev_log_index`` echoes the request's ``prev_log_index`` so a
    pipelining leader can tell which in-flight append a *rejection*
    answers: once it has backed ``next_index`` off below an echoed prev,
    later rejections of the same doomed window are stale and must not
    back off again (``None`` only from pre-echo senders; treated as
    "unknown, apply the rejection").
    """

    __slots__ = (
        "term",
        "follower",
        "success",
        "match_index",
        "conflict_index",
        "prev_log_index",
    )

    def __init__(
        self,
        term: int,
        follower: str,
        success: bool,
        match_index: int,
        conflict_index: int | None = None,
        prev_log_index: int | None = None,
    ) -> None:
        self.term = term
        self.follower = follower
        self.success = success
        self.match_index = match_index
        self.conflict_index = conflict_index
        self.prev_log_index = prev_log_index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AppendEntriesResponse(term={self.term}, follower={self.follower!r}, "
            f"success={self.success}, match={self.match_index}, "
            f"conflict={self.conflict_index}, prev={self.prev_log_index})"
        )


class InstallSnapshotRequest:
    """Snapshot transfer (§7 of the Raft paper; etcd ``MsgSnap``).

    Sent when a follower's ``next_index`` has fallen below the leader's
    ``log.first_index`` — the entries it needs are compacted away, so the
    leader ships its durable state-machine snapshot instead.  Warm path,
    not hot (one per far-behind follower per catch-up), but slotted like
    the other replication payloads: a recovering follower can trigger a
    burst of them.  Immutable by convention — ``data`` is the leader's
    snapshot image and must never be mutated by the receiver (it
    ``restore()``\\ s a copy).

    ``config`` carries the cluster configuration as of the snapshot index
    (``None`` only from membership-unaware senders): a learner that joins
    through the snapshot path must learn the membership the discarded
    prefix established, not just the state-machine image.
    """

    __slots__ = (
        "term",
        "leader",
        "last_included_index",
        "last_included_term",
        "data",
        "config",
    )

    def __init__(
        self,
        term: int,
        leader: str,
        last_included_index: int,
        last_included_term: int,
        data: Any,
        config: Any = None,
    ) -> None:
        self.term = term
        self.leader = leader
        self.last_included_index = last_included_index
        self.last_included_term = last_included_term
        self.data = data
        self.config = config

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InstallSnapshotRequest(term={self.term}, leader={self.leader!r}, "
            f"last=({self.last_included_index},{self.last_included_term}))"
        )


class InstallSnapshotResponse:
    """Snapshot transfer ack.  ``last_included_index`` echoes the installed
    (or already-covered) snapshot frontier so the leader can advance
    ``match_index``/``next_index`` past the transfer.  Immutable by
    convention."""

    __slots__ = ("term", "follower", "last_included_index")

    def __init__(self, term: int, follower: str, last_included_index: int) -> None:
        self.term = term
        self.follower = follower
        self.last_included_index = last_included_index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InstallSnapshotResponse(term={self.term}, "
            f"follower={self.follower!r}, last={self.last_included_index})"
        )


class HeartbeatRequest:
    """Leader liveness beacon (etcd ``MsgHeartbeat``; hot path).

    ``commit`` is clamped by the sender to the follower's match index so a
    follower can never be told to commit entries it might not hold.

    Immutable by convention: leaders cache and re-send the same instance
    to a follower while ``(term, commit)`` are unchanged and no metadata
    is attached.
    """

    __slots__ = ("term", "leader", "commit", "meta")

    def __init__(
        self,
        term: int,
        leader: str,
        commit: int,
        meta: HeartbeatMeta | None = None,
    ) -> None:
        self.term = term
        self.leader = leader
        self.commit = commit
        self.meta = meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeartbeatRequest(term={self.term}, leader={self.leader!r}, "
            f"commit={self.commit}, meta={self.meta!r})"
        )


class HeartbeatResponse:
    """Follower liveness ack (etcd ``MsgHeartbeatResp``; hot path).
    Immutable by convention."""

    __slots__ = ("term", "follower", "last_log_index", "meta")

    def __init__(
        self,
        term: int,
        follower: str,
        last_log_index: int,
        meta: HeartbeatResponseMeta | None = None,
    ) -> None:
        self.term = term
        self.follower = follower
        self.last_log_index = last_log_index
        self.meta = meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeartbeatResponse(term={self.term}, follower={self.follower!r}, "
            f"last_log_index={self.last_log_index}, meta={self.meta!r})"
        )


class ReadIndexProbe:
    """Leader → follower leadership confirmation for a ReadIndex round.

    A batch of registered reads is served from the leader's state machine
    *without a log entry* once a quorum acks the probe (etcd's
    ``MsgReadIndex`` round).  The probe must be broadcast **after** the
    reads register — an ack only proves the follower had not adopted a
    newer term when it answered, so acks to earlier probes prove nothing
    about reads registered since.  ``seq`` ties acks to their round.
    Warm path (one broadcast per read batch), slotted like the other
    replication payloads; immutable by convention.
    """

    __slots__ = ("term", "leader", "seq")

    def __init__(self, term: int, leader: str, seq: int) -> None:
        self.term = term
        self.leader = leader
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReadIndexProbe(term={self.term}, leader={self.leader!r}, seq={self.seq})"


class ReadIndexAck:
    """Follower → leader ReadIndex confirmation.  ``term`` is the
    follower's term at answer time: the leader counts the ack toward the
    quorum only when it equals its own — a higher term deposes it
    instead.  Immutable by convention."""

    __slots__ = ("term", "follower", "seq")

    def __init__(self, term: int, follower: str, seq: int) -> None:
        self.term = term
        self.follower = follower
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReadIndexAck(term={self.term}, follower={self.follower!r}, seq={self.seq})"


class _ClientCommand:
    """What the two client → server RPCs share: ``(request_id, command)``
    with the value semantics of a dataclass (equal only within one class).
    Hot path: one per client op.  Immutable by convention."""

    __slots__ = ("request_id", "command")

    def __init__(self, request_id: int, command: Any) -> None:
        self.request_id = request_id
        self.command = command

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ClientCommand) or other.__class__ is not self.__class__:
            return NotImplemented
        return (self.request_id, self.command) == (other.request_id, other.command)

    def __hash__(self) -> int:
        return hash((self.request_id, self.command))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__name__}(request_id={self.request_id!r}, "
            f"command={self.command!r})"
        )


class ClientRequest(_ClientCommand):
    """A state-machine command submitted by a client process."""

    __slots__ = ()


class ClientReadRequest(_ClientCommand):
    """A read-only command a client asks to be served via the leader's
    read fast path (ReadIndex quorum round, or the leader lease when
    enabled) instead of log serialization.  Answered with an ordinary
    :class:`ClientResponse`; a non-leader redirects exactly like a write.
    """

    __slots__ = ()


class ClientResponse:
    """Answer to a client RPC (hot path).  Immutable by convention."""

    __slots__ = ("request_id", "ok", "result", "leader_hint")

    def __init__(
        self,
        request_id: int,
        ok: bool,
        result: Any = None,
        leader_hint: str | None = None,
    ) -> None:
        self.request_id = request_id
        self.ok = ok
        self.result = result
        self.leader_hint = leader_hint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClientResponse):
            return NotImplemented
        return (self.request_id, self.ok, self.result, self.leader_hint) == (
            other.request_id,
            other.ok,
            other.result,
            other.leader_hint,
        )

    def __hash__(self) -> int:
        return hash((self.request_id, self.ok, self.result, self.leader_hint))

    def __repr__(self) -> str:
        return (
            f"ClientResponse(request_id={self.request_id!r}, ok={self.ok!r}, "
            f"result={self.result!r}, leader_hint={self.leader_hint!r})"
        )
