"""Cluster membership: the configuration a Raft log can change.

One-at-a-time reconfiguration (§4.1 of the Raft dissertation): the
membership is itself replicated state, carried in ordinary log entries
whose command is a :class:`ConfigChange`.  Because each change adds or
removes at most one voter, any two *adjacent* configurations share a
majority — the old and new quorums necessarily intersect, so no log
prefix can be committed under two disjoint quorums and the usual
single-config safety argument carries over unchanged.

Joint consensus is deliberately not implemented: the paper's elastic
experiments only ever grow or shrink by one node per committed change,
and the single-change protocol is both what etcd ships by default and
what the dissertation recommends.

Three change kinds, applied-at-append on every node that holds the entry:

``add_learner``
    the node joins as a **non-voting learner** — it receives appends and
    snapshots and is counted in no quorum.  This is the only way in: a
    fresh node must be caught up (through the InstallSnapshot path) before
    its vote can matter.
``promote``
    a caught-up learner becomes a voter — the step that actually changes
    quorum arithmetic.
``remove``
    a voter or learner leaves.  A leader that commits its own removal
    steps down (§4.2.2).

A :class:`ConfigChange` carries the complete *resulting*
:class:`ClusterConfig`, not a delta: a follower that appends the entry
adopts the attached configuration directly, so config agreement follows
from log agreement with no replay arithmetic.

A node keeps a :class:`ConfigLog` of the configurations its log carries
and a :class:`Quorum`: who counts under the one in force.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable

from repro.raft.log import LogEntry, RaftLog, Snapshot

__all__ = [
    "ClusterConfig",
    "ConfigChange",
    "ConfigLog",
    "CHANGE_KINDS",
    "Quorum",
    "quorums_overlap",
]

#: The legal ``ConfigChange.kind`` values.
CHANGE_KINDS: frozenset[str] = frozenset({"add_learner", "promote", "remove"})


@dataclasses.dataclass(slots=True, frozen=True)
class ClusterConfig:
    """An immutable membership: who votes, who merely replicates.

    Attributes:
        voters: nodes counted in election and commit quorums.
        learners: non-voting members — they receive appends/snapshots but
            appear in no quorum.

    Both tuples are kept sorted so configurations compare and hash by
    content, independent of the order changes were applied in.
    """

    voters: tuple[str, ...]
    learners: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        voters = tuple(sorted(self.voters))
        learners = tuple(sorted(self.learners))
        if len(set(voters)) != len(voters):
            raise ValueError(f"duplicate voter in {voters!r}")
        if len(set(learners)) != len(learners):
            raise ValueError(f"duplicate learner in {learners!r}")
        overlap = set(voters) & set(learners)
        if overlap:
            raise ValueError(f"nodes both voter and learner: {sorted(overlap)}")
        object.__setattr__(self, "voters", voters)
        object.__setattr__(self, "learners", learners)

    # -- queries ------------------------------------------------------------ #

    @property
    def quorum(self) -> int:
        """Majority size of the voter set (1 for an empty set: a lone
        joiner bootstrapping from a snapshot has no one to wait for)."""
        return len(self.voters) // 2 + 1

    @property
    def members(self) -> tuple[str, ...]:
        """Every member, voting or not (replication targets)."""
        return self.voters + self.learners

    def is_voter(self, name: str) -> bool:
        return name in self.voters

    def is_learner(self, name: str) -> bool:
        return name in self.learners

    def __contains__(self, name: object) -> bool:
        return name in self.voters or name in self.learners

    # -- derivation --------------------------------------------------------- #

    def with_learner(self, name: str) -> "ClusterConfig":
        """The configuration after ``name`` joins as a learner."""
        if name in self:
            raise ValueError(f"{name!r} is already a member")
        return ClusterConfig(self.voters, self.learners + (name,))

    def with_promoted(self, name: str) -> "ClusterConfig":
        """The configuration after learner ``name`` becomes a voter."""
        if name not in self.learners:
            raise ValueError(f"{name!r} is not a learner")
        return ClusterConfig(
            self.voters + (name,),
            tuple(n for n in self.learners if n != name),
        )

    def without(self, name: str) -> "ClusterConfig":
        """The configuration after member ``name`` leaves."""
        if name not in self:
            raise ValueError(f"{name!r} is not a member")
        return ClusterConfig(
            tuple(n for n in self.voters if n != name),
            tuple(n for n in self.learners if n != name),
        )

    # -- serialization ------------------------------------------------------- #

    def to_dict(self) -> dict[str, Any]:
        return {"voters": list(self.voters), "learners": list(self.learners)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ClusterConfig":
        return cls(
            voters=tuple(payload.get("voters", ())),
            learners=tuple(payload.get("learners", ())),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterConfig(voters={list(self.voters)}, learners={list(self.learners)})"


@dataclasses.dataclass(slots=True, frozen=True)
class ConfigChange:
    """The command of a configuration-change log entry.

    Attributes:
        kind: one of :data:`CHANGE_KINDS`.
        node: the single node the change concerns.
        config: the complete **resulting** configuration — the one every
            holder of this entry runs under from the moment of append.
    """

    kind: str
    node: str
    config: ClusterConfig

    def __post_init__(self) -> None:
        if self.kind not in CHANGE_KINDS:
            raise ValueError(
                f"unknown config-change kind {self.kind!r}; "
                f"expected one of {sorted(CHANGE_KINDS)}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "node": self.node, "config": self.config.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ConfigChange":
        return cls(
            kind=payload["kind"],
            node=payload["node"],
            config=ClusterConfig.from_dict(payload["config"]),
        )


@dataclasses.dataclass(slots=True, frozen=True)
class Quorum:
    """Who counts toward one node's elections and commits.

    :meth:`of` is the one place a node decides voter membership.  Every
    tally counts *other* voters' responses against ``acks``.

    Attributes:
        voters: the voting members; only their responses are counted.
        peers: the voters other than this node, in configuration order.
        size: the majority of ``voters``.
        acks: responses from ``peers`` that complete a majority: ``size``
            minus one while this node votes, else ``size`` (a learner, or
            a leader that has appended its own removal).  0: this node
            alone is the quorum.
    """

    voters: frozenset[str]
    peers: tuple[str, ...]
    size: int
    acks: int

    @classmethod
    def of(cls, config: ClusterConfig, me: str) -> "Quorum":
        voters = config.voters
        size = config.quorum
        peers = tuple([p for p in voters if p != me])
        return cls(frozenset(voters), peers, size, size - 1 if me in voters else size)


class ConfigLog:
    """One node's membership record: the configuration at its log's
    compaction frontier plus the ``(index, change)`` of every config entry
    still in the retained log.  The configuration in force is the newest
    record, committed or not (applied-at-append), else the base.
    """

    __slots__ = ("_base", "_changes")

    def __init__(self, base: ClusterConfig) -> None:
        self._base = base
        self._changes: list[tuple[int, ConfigChange]] = []

    @property
    def current(self) -> ClusterConfig:
        changes = self._changes
        return changes[-1][1].config if changes else self._base

    def at(self, index: int) -> ClusterConfig:
        """The configuration in force at log position ``index``."""
        cfg = self._base
        for idx, change in self._changes:
            if idx > index:
                break
            cfg = change.config
        return cfg

    def in_flight(self, commit_index: int) -> bool:
        changes = self._changes
        return bool(changes) and changes[-1][0] > commit_index

    def _retract(self, log: RaftLog) -> bool:
        """Drop records whose entries ``log`` no longer holds (a conflict
        truncation or a snapshot install); True if any went."""
        changes = self._changes
        changed = False
        while changes:
            idx, change = changes[-1]
            if idx <= log.last_included_index:
                break  # committed and compacted: stays by construction
            if idx <= log.last_index and log.entry_at(idx).command is change:
                break
            changes.pop()
            changed = True
        return changed

    def adopt(self, log: RaftLog, entries: Iterable[LogEntry]) -> bool:
        """After ``entries`` went into ``log`` (a leader's own append or a
        follower's ``try_append``): retract what a truncation discarded and
        record the config entries the log now holds; True if the record
        changed."""
        changes = self._changes
        changed = self._retract(log)
        top = changes[-1][0] if changes else 0
        base = log.last_included_index
        for entry in entries:
            cmd = entry.command
            if (
                cmd.__class__ is ConfigChange
                and top < entry.index <= log.last_index
                and entry.index > base
                and log.entry_at(entry.index).command is cmd
            ):
                changes.append((entry.index, cmd))
                top = entry.index
                changed = True
        return changed

    def rebase(self, upto: int) -> None:
        """Compaction moved the frontier to ``upto``: fold the records at
        or below it into the base."""
        changes = self._changes
        while changes and changes[0][0] <= upto:
            self._base = changes.pop(0)[1].config

    def rebuild(self, log: RaftLog, snapshot: Snapshot | None) -> None:
        """The log's prefix was replaced by ``snapshot`` (an install, or
        crash recovery from durable state): the snapshot's configuration,
        then every config entry still in the log — an uncommitted one that
        survived stays in force."""
        if snapshot is not None and snapshot.config is not None:
            self._base = snapshot.config
            floor = snapshot.last_included_index
        else:
            floor = log.last_included_index
        self._changes = [
            (entry.index, entry.command)
            for entry in log.entries()
            if entry.index > floor and entry.command.__class__ is ConfigChange
        ]


def quorums_overlap(old_voters: Iterable[str], new_voters: Iterable[str]) -> bool:
    """True iff *every* majority of ``old_voters`` intersects every
    majority of ``new_voters``.

    This is the safety condition one-at-a-time changes guarantee between
    adjacent configurations: with ``q = |V| // 2 + 1``, two quorums drawn
    from the union can only be disjoint when ``q_old + q_new <= |V_old ∪
    V_new|``.  The SafetyChecker evaluates this over every committed
    config transition — a violation means a reconfiguration created a
    moment where two leaders could both assemble a quorum.
    """
    old = set(old_voters)
    new = set(new_voters)
    if not old or not new:
        # A transition into or out of an empty voter set has no quorum
        # pair to overlap; treat as safe (bootstrapping a lone learner).
        return True
    q_old = len(old) // 2 + 1
    q_new = len(new) // 2 + 1
    return q_old + q_new > len(old | new)
