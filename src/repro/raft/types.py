"""Core Raft types: roles and node configuration."""

from __future__ import annotations

import dataclasses
import enum

__all__ = ["Role", "RaftConfig"]


class Role(enum.Enum):
    """The three roles of §II-A plus the pre-vote extension's fourth state.

    A *pre-candidate* has detected leader loss but has not incremented its
    term; it first polls the cluster (pre-vote) and only becomes a real
    candidate — and only then disturbs the term space — if a majority
    agrees the leader is gone.  Dynatune's tolerance of false detections
    (Fig. 6b) rests on this state.
    """

    FOLLOWER = "follower"
    PRECANDIDATE = "precandidate"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclasses.dataclass(slots=True, frozen=True)
class RaftConfig:
    """Per-node protocol configuration (election parameters live in the
    :class:`~repro.dynatune.policy.TuningPolicy`, not here).

    Every field is set by some caller under ``src/`` — an experiment, not
    only a test (repolint's ``config-knob-liveness`` keeps it so, and
    ``tests/repolint/test_knob_rules.py`` checks it with tests, benchmarks
    and examples hidden); behaviours that only ever ran with one value
    are constants in ``raft/node.py``, not options.  So the leader beats
    each follower on that follower's own timer at the policy's ``h``, and
    an AppendEntries never moves the next heartbeat: the paper's §IV-E
    future-work ideas (heartbeat suppression under load, one consolidated
    timer) are not evaluated by it and not implemented here.

    Attributes:
        prevote: run the pre-vote phase before real elections (etcd default;
            the paper's described behaviour, §II-A).
        check_quorum: leader steps down when it has not heard from a quorum
            within an election timeout, and followers refuse (pre-)votes
            while they have a fresh leader lease.  Matches etcd's
            ``CheckQuorum``/lease protection, which the Fig. 6 behaviour
            depends on.
        compaction_threshold: take a state-machine snapshot and compact the
            log once more than this many entries are retained (§7 of the
            Raft paper).  ``0`` (the default) disables compaction entirely
            — the log grows without bound, exactly the pre-compaction
            behaviour every golden-seed digest was captured under.
        compaction_retain_margin: entries kept *behind* the snapshot point
            when compacting (etcd's ``SnapshotCatchUpEntries``): a
            slightly-lagging follower can still catch up from the log
            instead of paying a full snapshot transfer.  Also the slack a
            leader grants live followers — compaction never advances past
            ``min(live match_index)``, but a follower that stopped
            responding does not hold memory hostage: it gets a snapshot
            when it returns.
        client_batching: leader-side append batching — client commands are
            buffered and flushed as *one* log append + one AppendEntries
            per follower instead of a full replication fan-out per
            command.  The flush fires when 64 commands are buffered, when
            the dedicated ``client_batch_window_ms`` timer expires, or at
            the next heartbeat tick to any follower (whichever comes
            first).  Off by default: the per-command fan-out is the
            behaviour every golden-seed digest and fuzz reproducer was
            captured under.
        client_batch_window_ms: dedicated flush timer armed when the first
            command enters an empty buffer.  ``0`` (default) arms no
            timer — the batch rides the next heartbeat tick, etcd's
            classic "replicate on the tick" cadence.
        replication_pipelining: stream AppendEntries to a follower without
            waiting for acks — ``next_index`` advances optimistically at
            send time (etcd's ``StateReplicate`` progress), so each
            in-flight window slot carries *new* entries instead of
            re-sending the same suffix.  A rejection drops the follower
            into probe mode (one unpiped append at a time) until a
            success re-establishes the match point; stale rejections of
            already-superseded probes are ignored via the echoed
            ``prev_log_index``.  At most four windows are in flight per
            follower.  Off by default (identical traffic to the seed's
            ack-clocked resend).
        lease_reads: serve linearizable reads from the leader lease when
            it is safely held, falling back to the ReadIndex quorum round
            otherwise.  The lease duration derives from the policy's
            ``lease_bound_ms()`` — the smallest election timeout any
            voter is applying (Dynatune followers piggyback their tuned
            ``Et`` so the bound tracks the tuned value) — minus
            ``lease_drift_margin_ms``.  Off by default; ReadIndex reads
            need no knob (they are triggered purely by clients sending
            ``ClientReadRequest``).
        lease_drift_margin_ms: safety slack subtracted from the lease
            bound.  Must absorb (a) relative clock drift over one lease
            and (b) the one-way network delay between a follower hearing
            the leader and the leader learning it did (the lease clock
            starts at response *receipt*).  Serving experiments assert
            this margin against the measured RTT window.
    """

    prevote: bool = True
    check_quorum: bool = True
    client_batching: bool = False
    client_batch_window_ms: float = 0.0
    replication_pipelining: bool = False
    lease_reads: bool = False
    lease_drift_margin_ms: float = 50.0
    compaction_threshold: int = 0
    compaction_retain_margin: int = 64

    def __post_init__(self) -> None:
        if not (self.client_batch_window_ms >= 0.0):
            raise ValueError(
                "client_batch_window_ms must be >= 0, "
                f"got {self.client_batch_window_ms!r}"
            )
        if not (self.lease_drift_margin_ms >= 0.0):
            raise ValueError(
                "lease_drift_margin_ms must be >= 0, "
                f"got {self.lease_drift_margin_ms!r}"
            )
        if self.compaction_threshold < 0:
            raise ValueError(
                f"compaction_threshold must be >= 0, got {self.compaction_threshold!r}"
            )
        if self.compaction_retain_margin < 0:
            raise ValueError(
                "compaction_retain_margin must be >= 0, "
                f"got {self.compaction_retain_margin!r}"
            )
