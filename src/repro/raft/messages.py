"""Raft RPC payloads.

Every payload is a slotted dataclass, built once by its sender and shared
with the in-process receiver, so all of them are immutable by convention:
never mutate one after it is sent.  The vote pairs, a handful per election,
are also ``frozen``.  The rest are not: a frozen dataclass pays one
``object.__setattr__`` per field on every construction, and these are the
steady-state traffic — heartbeats (etcd ``MsgHeartbeat``/
``MsgHeartbeatResp``), AppendEntries, the ReadIndex round and the client
RPCs, thousands per simulated second.

The replication payloads keep identity equality (``eq=False``): leaders
re-send *the same* cached heartbeat object to a follower while term and
commit are stable.  The client RPCs (:class:`ClientRequest`,
:class:`ClientReadRequest`, :class:`ClientResponse`) compare and hash
field-wise within one class (``unsafe_hash=True``).

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


@dataclasses.dataclass(slots=True, eq=False)
class AppendEntriesRequest:
    """Replication RPC."""

    term: int
    leader: str
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int


@dataclasses.dataclass(slots=True, eq=False)
class AppendEntriesResponse:
    """Replication ack.

    ``prev_log_index`` echoes the request's ``prev_log_index`` so a
    pipelining leader can tell which in-flight append a *rejection*
    answers: once it has backed ``next_index`` off below an echoed prev,
    later rejections of the same doomed window are stale and must not
    back off again (``None`` only from pre-echo senders; treated as
    "unknown, apply the rejection").
    """

    term: int
    follower: str
    success: bool
    match_index: int
    conflict_index: int | None = None
    prev_log_index: int | None = None


@dataclasses.dataclass(slots=True, eq=False)
class InstallSnapshotRequest:
    """Snapshot transfer (§7 of the Raft paper; etcd ``MsgSnap``).

    Sent when a follower's ``next_index`` has fallen below the leader's
    ``log.first_index`` — the entries it needs are compacted away, so the
    leader ships its durable state-machine snapshot instead.  ``data`` is
    the leader's snapshot image and must never be mutated by the receiver
    (it ``restore()``\\ s a copy).

    ``config`` carries the cluster configuration as of the snapshot index
    (``None`` only from membership-unaware senders): a learner that joins
    through the snapshot path must learn the membership the discarded
    prefix established, not just the state-machine image.
    """

    term: int
    leader: str
    last_included_index: int
    last_included_term: int
    data: Any
    config: Any = None


@dataclasses.dataclass(slots=True, eq=False)
class InstallSnapshotResponse:
    """Snapshot transfer ack.  ``last_included_index`` echoes the installed
    (or already-covered) snapshot frontier so the leader can advance
    ``match_index``/``next_index`` past the transfer."""

    term: int
    follower: str
    last_included_index: int


@dataclasses.dataclass(slots=True, eq=False)
class HeartbeatRequest:
    """Leader liveness beacon (etcd ``MsgHeartbeat``).

    ``commit`` is clamped by the sender to the follower's match index so a
    follower can never be told to commit entries it might not hold.
    Leaders cache and re-send the same instance to a follower while
    ``(term, commit)`` are unchanged and no metadata is attached.
    """

    term: int
    leader: str
    commit: int
    meta: HeartbeatMeta | None = None


@dataclasses.dataclass(slots=True, eq=False)
class HeartbeatResponse:
    """Follower liveness ack (etcd ``MsgHeartbeatResp``)."""

    term: int
    follower: str
    last_log_index: int
    meta: HeartbeatResponseMeta | None = None


@dataclasses.dataclass(slots=True, eq=False)
class ReadIndexProbe:
    """Leader → follower leadership confirmation for a ReadIndex round.

    A batch of registered reads is served from the leader's state machine
    *without a log entry* once a quorum acks the probe (etcd's
    ``MsgReadIndex`` round).  The probe must be broadcast **after** the
    reads register — an ack only proves the follower had not adopted a
    newer term when it answered, so acks to earlier probes prove nothing
    about reads registered since.  ``seq`` ties acks to their round.
    """

    term: int
    leader: str
    seq: int


@dataclasses.dataclass(slots=True, eq=False)
class ReadIndexAck:
    """Follower → leader ReadIndex confirmation.  ``term`` is the
    follower's term at answer time: the leader counts the ack toward the
    quorum only when it equals its own — a higher term deposes it
    instead."""

    term: int
    follower: str
    seq: int


@dataclasses.dataclass(slots=True, unsafe_hash=True)
class ClientRequest:
    """A state-machine command submitted by a client process."""

    request_id: int
    command: Any


@dataclasses.dataclass(slots=True, unsafe_hash=True)
class ClientReadRequest:
    """A read-only command a client asks to be served via the leader's
    read fast path (ReadIndex quorum round, or the leader lease when
    enabled) instead of log serialization.  Answered with an ordinary
    :class:`ClientResponse`; a non-leader redirects exactly like a write.
    """

    request_id: int
    command: Any


@dataclasses.dataclass(slots=True, unsafe_hash=True)
class ClientResponse:
    """Answer to a client RPC."""

    request_id: int
    ok: bool
    result: Any = None
    leader_hint: str | None = None
