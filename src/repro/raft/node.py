"""The Raft node: the complete protocol state machine.

This is the etcd-raft substitute the Dynatune layer plugs into.  It
implements, per the Raft paper and etcd's extensions the paper relies on:

* leader election with **randomized timeouts** drawn uniformly from
  ``[Et, 2·Et)`` of the policy-supplied base timeout (etcd's policy; the
  paper's measured randomizedTimeout means — 1454 ms for Et = 1000 ms,
  152 ms for a tuned Et ≈ 100 ms — pin this distribution down);
* the **pre-vote** phase (§II-A): a node that suspects the leader polls the
  cluster *without* incrementing its term, and reverts to follower if the
  supposedly-dead leader speaks up mid-poll — the exact mechanism behind
  Fig. 6b's "false detection but no OTS" result;
* **lease-protected voting** (etcd ``CheckQuorum``): a server that heard
  from a live leader within its election timeout rejects (pre-)votes, so a
  single confused node cannot depose a healthy leader;
* **leader quorum check**: a leader that loses contact with a majority
  steps down after one election timeout;
* log replication with conflict back-off, majority commit restricted to
  current-term entries (§5.4.2), and in-order application to the state
  machine;
* **per-follower heartbeat timers** — in stock Raft these all share one
  interval; Dynatune requires one interval per leader-follower path
  (§III-B), so the timer structure is per peer from the start.

Election parameters are never read from constants: every arm of the
election timer and every heartbeat scheduling decision asks the node's
:class:`~repro.dynatune.policy.TuningPolicy`.  Swapping the policy object
is the *only* difference between the paper's Raft, Raft-Low, Fix-K and
Dynatune systems, mirroring the paper's claim that Dynatune leaves Raft's
mechanisms untouched.

Hot-path structure (the protocol layer dominates large-cluster wall time):

* the leader's whole view of one follower is a single slotted
  :class:`Progress` record (etcd's ``tracker.Progress``), so a beat or an
  ack is one dict lookup followed by attribute loads, and "is this peer
  in my reign?" is that lookup;
* the heartbeat exchange is **allocation-light** — the request (on the
  follower's :class:`Progress`) and the response are cached and re-sent
  while ``(term, commit)`` / ``(term, last_log_index)`` are stable and no
  tuning metadata rides along (the baseline-Raft steady state allocates
  no message objects at all);
* message dispatch is a type-indexed table rather than an isinstance
  cascade, and election randomization draws come from a buffered block of
  the node's RNG stream (bit-identical values, a fraction of the numpy
  per-call overhead).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Callable, ClassVar

import numpy as np

from repro.dynatune.policy import TuningPolicy
from repro.raft.log import RaftLog, Snapshot
from repro.raft.membership import ClusterConfig, ConfigChange, ConfigLog, Quorum
from repro.raft.messages import (
    AppendEntriesRequest,
    AppendEntriesResponse,
    ClientReadRequest,
    ClientRequest,
    ClientResponse,
    HeartbeatRequest,
    HeartbeatResponse,
    InstallSnapshotRequest,
    InstallSnapshotResponse,
    PreVoteRequest,
    PreVoteResponse,
    ReadIndexAck,
    ReadIndexProbe,
    VoteRequest,
    VoteResponse,
)
from repro.raft.metrics import NodeMetrics
from repro.raft.state_machine import StateMachine
from repro.raft.types import RaftConfig, Role
from repro.sim.clock import NodeClock
from repro.sim.loop import EventLoop
from repro.sim.process import Process, ProcessState
from repro.sim.timers import Timer
from repro.sim.tracing import TraceLog
from repro.storage.base import DiskCorruptionError, RecoveredState, Storage
from repro.storage.ideal import IdealStorage

__all__ = ["Progress", "RaftNode", "quorum_match"]

_NEG_INF = -math.inf

#: Uniform draws fetched from the node's RNG per block (see ``_rand``).
_RAND_BLOCK = 256

#: Module-level alias: ``deliver`` checks this once per delivered message.
_RUNNING = ProcessState.RUNNING

# Behaviours that only ever ran with one value are constants, not
# ``RaftConfig`` options.
#: Transport for consensus RPCs and client replies (etcd parity: Dynatune
#: keeps consensus on TCP and only moves heartbeats to the policy's channel).
_RPC_CHANNEL = "tcp"
#: Replication batch bound, entries per AppendEntries (etcd parity).
_MAX_ENTRIES_PER_APPEND = 64
#: Buffered client commands that force an immediate batch flush.
_CLIENT_BATCH_MAX = 64
#: Per-follower in-flight AppendEntries window under pipelining: without a
#: cap, every response to a still-behind follower would spawn a fresh
#: full-window resend.
_MAX_INFLIGHT_APPENDS = 4
#: Uniform extra delay per heartbeat tick (OS scheduling noise): a
#: simulator's perfectly aligned timers would phase-lock every follower's
#: failure detection and make split votes near-certain.
_HB_TIMER_JITTER_MS = 0.5
#: An append pipeline with no ack for this long is considered lost.
_APPEND_PIPELINE_STALL_MS = 1_000.0


@dataclasses.dataclass(slots=True, eq=False)
class Progress:
    """The leader's view of one follower (etcd's ``tracker.Progress``).

    One record per member peer, learners included, alive exactly as long
    as the peer is in this leader's reign: built in ``_become_leader``,
    added/removed by ``_apply_membership_change`` as the configuration
    changes, dropped on step-down and recovery.  A record's ``match`` moves
    the commit frontier only while its peer is in ``Quorum.voters``.

    Attributes:
        next: index of the next entry to send (advances optimistically at
            send time under ``replication_pipelining``).
        match: highest index known replicated on the follower.
        last_response: local time of the follower's latest response of
            any kind — feeds check-quorum and the read lease.
        last_append_response: local time of its latest replication ack;
            an in-flight window silent past the stall bound is re-primed
            from the next heartbeat response.
        inflight: unacknowledged AppendEntries (etcd's inflight window).
        snapshot_sent_at: send time of an unacknowledged InstallSnapshot
            transfer, else ``None``.
        probing: the append pipeline collapsed to one probe at a time
            after a rejection (``replication_pipelining`` only).
        hb_request: cached outbound heartbeat, valid while its fields are
            unchanged and no metadata rides along (messages are immutable
            by convention, so re-sending the same object is safe even with
            copies still in flight).
        hb_timer: the follower's own ``hb/<peer>`` heartbeat loop, fetched
            from the node's timer service at the first arm.
    """

    peer: str
    next: int
    last_response: float
    last_append_response: float
    match: int = 0
    inflight: int = 0
    snapshot_sent_at: float | None = None
    probing: bool = False
    hb_request: HeartbeatRequest | None = None
    hb_timer: Timer | None = None


def quorum_match(progress: dict[str, Progress], quorum: Quorum, last_index: int) -> int:
    """The commit rule's candidate: the largest index replicated on a
    majority of ``quorum``'s voters.

    That is the ``acks``-th largest ``match`` among the voter peers — the
    leader's own log counts through ``Quorum.acks`` — or the leader's
    ``last_index`` when it alone is the quorum (``acks == 0``).
    """
    acks = quorum.acks
    if acks == 0:
        return last_index
    matches = [progress[peer].match for peer in quorum.peers]
    matches.sort(reverse=True)
    return matches[acks - 1]


@dataclasses.dataclass(slots=True, eq=False)
class _ReadBatch:
    """One ReadIndex round: the reads it covers and its quorum progress.

    ``read_index`` is frozen at registration time (max of the leader's
    commit index and its term-start no-op); the batch serves once a
    quorum has acked the round's probe *and* the commit index has
    reached ``read_index``.
    """

    seq: int
    read_index: int
    reads: list[tuple[str, int, Any]]
    acks: set[str] = dataclasses.field(default_factory=set)
    confirmed: bool = False


class RaftNode(Process):
    """One Raft server.

    Args:
        loop: shared event loop.
        name: unique node name.
        peers: names of **all** cluster members (including this node).
        network: what the node sends through — anything with the fabric's
            envelope-free ``transmit(src, dst, payload, channel, size)``.
        config: protocol configuration.
        policy: election-parameter policy (Static / Dynatune / Fix-K).
        state_machine: the replicated application (e.g. ``KVStore``).
        trace: shared structured log.
        rng: this node's random stream (election randomization).
        initial_config: starting membership.  Defaults to "every peer is a
            voter" (the static-cluster behaviour).  A node spawned into a
            running cluster passes a learner-only config — it learns the
            real membership from the leader's snapshot/append stream.
        storage: durable-storage backend every hard-state mutation flows
            through.  Defaults to :class:`~repro.storage.ideal.
            IdealStorage` — the idealized always-durable disk, bit-identical
            to the pre-storage behaviour.

    ``clock`` is this node's local clock, an identity
    :class:`~repro.sim.clock.NodeClock` (no skew, no drift) until a
    ``SetClock`` step skews it — bit-identical to reading the loop clock
    directly.  All protocol time reads and timer durations go through it,
    so injected skew/drift affects this node's *view* of time while the
    simulation clock stays the single physical truth.
    """

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        peers: list[str],
        network: Any,
        config: RaftConfig,
        policy: TuningPolicy,
        state_machine: StateMachine,
        trace: TraceLog,
        rng: np.random.Generator,
        initial_config: ClusterConfig | None = None,
        storage: Storage | None = None,
    ) -> None:
        super().__init__(loop, name, trace)
        #: Local clock: every protocol time read and timer duration goes
        #: through it (repolint's ``node-clock-hygiene`` keeps it that way).
        self.clock = NodeClock(loop)
        # Hot-path caches: the local-time read and the local→sim duration
        # conversion are bound methods, one attribute load per use.
        self._now: Callable[[], float] = self.clock.now
        self._clock_scale: Callable[[float], float] = self.clock.scale_duration
        if name not in peers:
            raise ValueError(f"peers must include the node itself ({name!r})")
        if initial_config is None:
            initial_config = ClusterConfig(voters=tuple(peers))
        # Membership is replicated state (one-at-a-time config changes,
        # §4.1 of the Raft dissertation), applied-at-append.
        self._configs = ConfigLog(initial_config)
        self._refresh_membership()
        self.config = config
        self.policy = policy
        self.state_machine = state_machine
        self.rng = rng
        self.metrics = NodeMetrics()

        # Persistent state (survives crash-recovery).
        self.current_term = 0
        self.voted_for: str | None = None
        self.log = RaftLog()
        #: Durable snapshot (§7): the state-machine image crash-recovery
        #: restores and InstallSnapshot ships.  ``None`` until the first
        #: compaction (or installed snapshot); always at or ahead of the
        #: log's compaction frontier.
        self.snapshot: Snapshot | None = None
        #: Storage backend (§5.2): every write to the persistent state
        #: above is mirrored here, and every externalizing reply is
        #: preceded by a ``_sync()`` barrier.
        self.storage: Storage = storage if storage is not None else IdealStorage()
        self.storage.attach(self)
        self.log.journal = self.storage.wal

        self._reset_volatile()
        self._election_timer = self.timers.timer("election", self._on_election_timeout)
        self._started = False

        # -- hot-path caches (all derived, none carries protocol state) --- #
        # The heartbeat channel and the network's envelope-free transmit
        # are constant for the node's lifetime.
        self._hb_channel: str = policy.heartbeat_channel
        self._transmit: Callable[..., Any] = network.transmit
        # Buffered uniform draws (bit-identical to per-call rng.random()).
        self._rand_buf: list[float] | None = None
        self._rand_pos = 0
        # Frozen-config compaction knobs, read after every apply batch.
        self._compaction_threshold: int = config.compaction_threshold
        self._compaction_margin: int = config.compaction_retain_margin
        # -- client-serving fast path (all knobs default off) ------------- #
        # Frozen-config knobs, read per client op / per append.
        self._batching: bool = config.client_batching
        self._batch_window_ms: float = config.client_batch_window_ms
        self._pipelining: bool = config.replication_pipelining
        self._lease_reads: bool = config.lease_reads
        self._lease_margin_ms: float = config.lease_drift_margin_ms

    def _reset_volatile(self) -> None:
        """(Re-)initialise every piece of volatile state: the one place a
        fresh node and a crash-recovered one get it from, so the two can
        never disagree.  Needs the membership caches and ``snapshot``."""
        self.role = Role.FOLLOWER
        self.leader_id: str | None = None
        # The snapshot only ever covers applied (hence committed) entries,
        # so its index is a sound post-restart commit floor — the same
        # initialisation etcd performs from its snapshot file.
        snap = self.snapshot
        floor = snap.last_included_index if snap is not None else 0
        self.commit_index = floor
        self.last_applied = floor
        self.last_leader_contact = _NEG_INF

        # Candidate state.
        self._prevotes: set[str] = set()
        self._votes: set[str] = set()

        # Leader state.
        #: One record per follower of the current reign (empty otherwise).
        self.progress: dict[str, Progress] = {}
        self._pending_client: dict[int, tuple[str, int]] = {}  # log idx -> (client, req)
        #: Log index of this term's no-op entry while leader (0 otherwise);
        #: the read fast path gates on it being committed.
        self._term_start_index = 0
        #: Buffered client writes awaiting one batched log append.
        self._batch_buf: list[tuple[str, int, Any]] = []
        #: Reads waiting for the *next* ReadIndex round: a probe must
        #: broadcast after its reads register, so reads arriving while a
        #: round is in flight queue here.
        self._read_buf: list[tuple[str, int, Any]] = []
        #: The in-flight ReadIndex round, if any.
        self._read_round: _ReadBatch | None = None
        self._read_seq = 0
        #: The read lease's anchor (see ``_lease_valid_for_reads``), or
        #: ``None`` when a response, a new reign or a quorum change may
        #: have moved it since it was last found.
        self._lease_anchor: float | None = None

        # The one cached heartbeat response (follower side), valid while
        # its fields are unchanged and no metadata rides along.
        self._hb_resp_cache: HeartbeatResponse | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Arm the initial election timer; call once after wiring."""
        if self._started:
            raise RuntimeError(f"node {self.name!r} already started")
        self._started = True
        self._arm_election_timer()

    def on_recover(self) -> None:
        """Crash-recovery: volatile state resets; persistent state — the
        term/vote pair, the log, and the durable snapshot — is rebuilt
        from :attr:`storage` (for the ideal backend that hands the live
        objects straight back; for the simulated disk it replays the
        synced WAL region, possibly minus a torn tail).

        Without a snapshot the state machine restarts empty and the whole
        log replays as the commit index re-advances (the pre-compaction
        behaviour).  With one, recovery is *history-independent*: the
        machine restores the snapshot image and only the retained tail
        beyond it replays — entries below the log's first index no longer
        exist, so this path is what makes compaction crash-safe.
        """
        was_leader = self.role is Role.LEADER
        try:
            durable = self.storage.recover()
        except DiskCorruptionError as exc:
            # Acked state the disk can no longer reproduce: refuse to
            # rejoin and stay down (etcd's strict WAL policy) — silently
            # truncating here could un-commit acknowledged entries.
            self.trace.record(
                self._now(), self.name, "disk_corruption", error=str(exc)
            )
            self.crash()
            return
        self._restore_durable(durable)
        if was_leader:
            # The crash skipped _teardown_leadership: flush the leader
            # half of the policy state (lease/report bookkeeping) so no
            # pre-crash leadership leaks into the new incarnation.
            self.policy.on_step_down(self._now())
        self.state_machine.reset()
        snap = self.snapshot
        if snap is not None:
            self.state_machine.restore(snap.data)
        self._configs.rebuild(self.log, snap)
        self._refresh_membership()
        self._reset_volatile()
        self.policy.on_leader_change(None, self._now())
        self._arm_election_timer()
        if self.storage.kind != "ideal":
            # Traced only for fallible backends so the ideal default stays
            # byte-identical to the pre-storage goldens.
            if durable.wal_truncated:
                self.trace.record(
                    self._now(),
                    self.name,
                    "wal_truncated",
                    records=durable.wal_truncated,
                )
            self.trace.record(
                self._now(),
                self.name,
                "disk_recover",
                term=self.current_term,
                last_index=self.log.last_index,
                snapshot_index=(
                    snap.last_included_index if snap is not None else 0
                ),
                truncated=durable.wal_truncated,
                replayed=durable.replayed,
            )

    def _restore_durable(self, durable: RecoveredState) -> None:
        """Adopt what the disk actually holds (the designated recovery
        mutator for the persistent fields — see repolint's
        ``durable-write-hygiene``).

        For the ideal backend ``durable`` aliases the live objects, so
        every assignment is a no-op.  For a fallible disk the log/snapshot
        pair may be *older* than the pre-crash live state (unsynced tail
        lost) — and the snapshot may run ahead of the log frontier when a
        crash ate the log reset that followed an InstallSnapshot; the
        image covers everything the lost reset would have dropped, so
        recovery adopts its frontier.
        """
        self.current_term = durable.term
        self.voted_for = durable.voted_for
        self.log = durable.log
        self.snapshot = durable.snapshot
        snap = durable.snapshot
        if snap is not None and self.log.last_index < snap.last_included_index:
            self.log.install_snapshot(
                snap.last_included_index, snap.last_included_term
            )

    def crash(self) -> None:
        """Crash override: after the process dies, tell storage — the
        unsynced WAL tail is lost there (and disk faults may additionally
        tear the tail record or flip a durable bit)."""
        if self._state in (ProcessState.CRASHED, ProcessState.STOPPED):
            return  # mirror Process.crash's no-op states exactly
        super().crash()
        self.storage.on_crash()

    def _sync(self) -> bool:
        """The ack-after-sync barrier (§5.2): flush pending durable writes
        before anything externalizes them.

        ``False`` means the node crashed (or fail-stopped) at the persist
        point — the caller must return immediately without sending the
        response/grant/ack the barrier was protecting.
        """
        return self.storage.sync()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def is_leader(self) -> bool:
        return self.role is Role.LEADER and self.alive

    @property
    def current_randomized_timeout_ms(self) -> float:
        """The currently armed randomizedTimeout (Fig. 6's sampled series)."""
        return self.metrics.current_randomized_timeout_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RaftNode({self.name!r}, {self.role.value}, term={self.current_term}, "
            f"commit={self.commit_index})"
        )

    # ------------------------------------------------------------------ #
    # membership (one-at-a-time configuration changes, dissertation §4.1)
    # ------------------------------------------------------------------ #

    def _refresh_membership(self) -> None:
        """Re-read the configuration in force (``membership``) and rebuild
        what derives from it: the replication targets (``peers``) and the
        one :class:`Quorum` every tally reads."""
        cfg = self.membership = self._configs.current
        name = self.name
        self.peers = [p for p in cfg.members if p != name]
        self._quorum = Quorum.of(cfg, name)
        self._lease_anchor = None

    def config_change_in_flight(self) -> bool:
        """True while a config entry is appended but not yet committed."""
        return self._configs.in_flight(self.commit_index)

    def propose_config_change(self, kind: str, node: str) -> bool:
        """Leader API: append one membership change (``add_learner`` /
        ``promote`` / ``remove``) as a log entry.

        Applied-at-append: the leader runs under the new configuration the
        moment the entry is in its log.  At most one change may be in
        flight — a second proposal is rejected until the first commits,
        which is what makes one-at-a-time changes safe without joint
        consensus.

        Returns:
            True if the change was appended; False if this node is not the
            leader, a change is already in flight, or the change is
            invalid for the current membership (double add, unknown
            removal target, promoting a non-learner).
        """
        if self.role is not Role.LEADER:
            return False
        now = self._now()
        reason: str | None = None
        new_cfg: ClusterConfig | None = None
        if self.config_change_in_flight():
            reason = "config change already in flight"
        else:
            try:
                current = self.membership
                if kind == "add_learner":
                    new_cfg = current.with_learner(node)
                elif kind == "promote":
                    new_cfg = current.with_promoted(node)
                elif kind == "remove":
                    new_cfg = current.without(node)
                else:
                    reason = f"unknown config-change kind {kind!r}"
            except ValueError as exc:
                reason = str(exc)
        if reason is not None or new_cfg is None:
            self.trace.record(
                now,
                self.name,
                "config_rejected",
                change=kind,
                target=node,
                reason=reason,
                term=self.current_term,
            )
            return False
        change = ConfigChange(kind=kind, node=node, config=new_cfg)
        old_cfg = self.membership
        entry = self.log.append_new(self.current_term, change)
        self._configs.adopt(self.log, (entry,))
        self._refresh_membership()
        self.trace.record(
            now,
            self.name,
            "config_append",
            index=entry.index,
            term=entry.term,
            change=kind,
            target=node,
            voters=list(new_cfg.voters),
            learners=list(new_cfg.learners),
            prev_voters=list(old_cfg.voters),
        )
        if not self._sync():
            return False  # crashed persisting the config entry
        self._apply_membership_change(old_cfg, new_cfg)
        if self.role is Role.LEADER:  # may have stepped down committing a self-remove
            self._replicate_to_all()
        return True

    def _apply_membership_change(
        self, old: ClusterConfig, new: ClusterConfig
    ) -> None:
        """React to the effective configuration moving ``old → new``
        (after ``_refresh_membership``; this handles the side effects)."""
        if old == new:
            return
        name = self.name
        added = set(new.members) - set(old.members) - {name}
        removed = set(old.members) - set(new.members) - {name}
        for peer in removed:
            self.policy.on_peer_removed(peer)
        if self.role is Role.LEADER:
            now = self._now()
            next_index = self.log.last_index + 1
            for peer in sorted(added):
                pr = self.progress[peer] = Progress(peer, next_index, now, now)
                self._send_append(pr)
                self._schedule_heartbeat(pr, first=True)
            for peer in removed:
                del self.progress[peer]
                self.timers.drop(f"hb/{peer}")
            if old.voters != new.voters:
                # The quorum arithmetic changed mid-reign: re-check —
                # removing a straggler can make the smaller quorum
                # instantly satisfied by the acks already in hand (the
                # §5.4.2 term restriction still applies).
                self._commit_to(
                    quorum_match(self.progress, self._quorum, self.log.last_index)
                )
        elif name not in self._quorum.voters and self.role in (
            Role.PRECANDIDATE,
            Role.CANDIDATE,
        ):
            # A campaign by a non-voter can no longer win; stand down
            # without disturbing the term further.
            self.role = Role.FOLLOWER
            self._prevotes = set()
            self._votes = set()

    def _on_config_committed(self, index: int, change: ConfigChange) -> None:
        """Commit-time duties of a config entry (its *effect* started at
        append time): trace for the safety checker, step down after
        committing our own removal (dissertation §4.2.2)."""
        self.trace.record(
            self._now(),
            self.name,
            "config_commit",
            index=index,
            change=change.kind,
            target=change.node,
            term=self.current_term,
            voters=list(change.config.voters),
            learners=list(change.config.learners),
            prev_voters=list(self._configs.at(index - 1).voters),
        )
        if (
            change.kind == "remove"
            and change.node == self.name
            and self.role is Role.LEADER
        ):
            self._become_follower(self.current_term, None)
        elif self.role is Role.LEADER and change.config.learners:
            # A committed change unblocks the one-in-flight gate; any
            # learner that finished catching up in the meantime can now
            # have its promotion proposed.
            for learner in change.config.learners:
                pr = self.progress.get(learner)
                if pr is not None and pr.match >= self.log.last_index:
                    self._maybe_promote(pr)

    def _maybe_promote(self, pr: Progress) -> None:
        """Auto-promote a caught-up learner to voter (leader side).

        Fires from replication acks: once the learner's match index has
        reached the leader's commit index — i.e. it has been caught up,
        through the snapshot path if it started behind the leader's first
        retained entry — the leader proposes the ``promote`` entry,
        provided no other change is in flight.
        """
        if self.role is not Role.LEADER:
            return
        if pr.peer not in self.membership.learners:
            return
        if self.config_change_in_flight():
            return
        if pr.match < self.commit_index:
            return
        self.propose_config_change("promote", pr.peer)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def _rpc(self, dst: str, payload: Any, size: int = 96) -> None:
        self._transmit(self.name, dst, payload, _RPC_CHANNEL, size)

    def _reply(
        self,
        client: str,
        request_id: int,
        ok: bool,
        result: Any = None,
        leader_hint: str | None = None,
    ) -> None:
        """Answer a client request (the one place ClientResponses leave)."""
        self._rpc(client, ClientResponse(request_id, ok, result, leader_hint))

    def _rand(self) -> float:
        """One uniform draw from this node's stream, served from a block.

        ``rng.random(n)`` consumes the underlying bit stream exactly like
        ``n`` scalar ``rng.random()`` calls, so buffering changes no drawn
        value — only the per-call numpy overhead (the stream is private to
        this node; nothing else can observe the read-ahead).  The block is
        held as a Python list so serving a draw is one index, no
        ``np.float64 → float`` conversion.
        """
        pos = self._rand_pos
        buf = self._rand_buf
        if buf is None or pos >= _RAND_BLOCK:
            buf = self._rand_buf = self.rng.random(_RAND_BLOCK).tolist()
            pos = 0
        self._rand_pos = pos + 1
        return buf[pos]

    def _arm_election_timer(self) -> None:
        """(Re-)arm with a fresh randomized draw from ``[Et, 2·Et)``.

        Cold-path arm (start, recovery, role changes, vote grants); the
        per-heartbeat reset lives inlined in ``_on_heartbeat``.
        """
        base = self.policy.election_timeout_ms(self.leader_id)
        randomized = base * (1.0 + self._rand())
        self.metrics.current_randomized_timeout_ms = randomized
        self._election_timer.reset(self._clock_scale(randomized))

    def _lease_valid(self) -> bool:
        """etcd's ``inLease``: protected contact with a live leader."""
        if not self.config.check_quorum:
            return False
        if self.role is Role.LEADER:
            return True
        if self.leader_id is None:
            return False
        et = self.policy.election_timeout_ms(self.leader_id)
        return (self._now() - self.last_leader_contact) < et

    # ------------------------------------------------------------------ #
    # role transitions
    # ------------------------------------------------------------------ #

    def _grant_vote(self, candidate: str) -> None:
        """Designated mutator for granting our vote this term.

        ``voted_for`` is persistent state (§5.2): every write is a
        durability point, and the election-safety argument depends on a
        node never granting two different candidates in one term.  All
        grant-path writes go through here so the invariant has exactly
        one place to live (the other writers — term adoption clearing the
        vote, and self-voting on candidacy — are the two role
        transitions below; ``tools/repolint`` enforces the set).
        """
        self.voted_for = candidate
        self.storage.save_hard_state(self.current_term, candidate)

    def _become_follower(self, term: int, leader: str | None) -> None:
        was_leader = self.role is Role.LEADER
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
            # Lazy write: the next externalizing reply's barrier syncs it.
            self.storage.save_hard_state(term, None)
        self.role = Role.FOLLOWER
        self._prevotes = set()
        self._votes = set()
        if was_leader:
            self._teardown_leadership()
        prev_leader = self.leader_id
        self.leader_id = leader
        if prev_leader != leader:
            self.policy.on_leader_change(leader, self._now())
        self._arm_election_timer()

    def _teardown_leadership(self) -> None:
        self.trace.record(
            self._now(), self.name, "step_down", term=self.current_term
        )
        drop = self.timers.drop
        for peer in self.progress:
            drop(f"hb/{peer}")
        for name in ("quorum", "batch"):
            drop(name)
        self.progress = {}
        self._term_start_index = 0
        self.policy.on_step_down(self._now())
        # Pending proposals can no longer be confirmed by this node;
        # buffered-but-unappended commands and pending reads fail the same
        # way: the client's retry path re-submits them to the new leader.
        # (Pending keys are appended in increasing log-index order, so
        # sorting is a no-op today — it pins the response order against
        # any future change to how the dict is populated.)
        pending, self._pending_client = self._pending_client, {}
        buffered, self._batch_buf = self._batch_buf, []
        round_, self._read_round = self._read_round, None
        reads, self._read_buf = self._read_buf, []
        if round_ is not None:
            reads = round_.reads + reads
        self.metrics.reads_failed += len(reads)
        orphans = [pending[idx] for idx in sorted(pending)]
        orphans += [(client, req_id) for client, req_id, _command in buffered + reads]
        for client, req_id in orphans:
            self._reply(client, req_id, ok=False)

    def _on_election_timeout(self) -> None:
        if self.role is Role.LEADER:
            return  # leaders do not run an election timer
        if self.name not in self._quorum.voters:
            # Learners and removed nodes never campaign — they keep the
            # timer armed only so a later promotion needs no special case.
            self._arm_election_timer()
            return
        had_leader = self.leader_id
        self.trace.record(
            self._now(),
            self.name,
            "election_timeout",
            term=self.current_term,
            role=self.role.value,
            leader=had_leader,
            randomized_timeout_ms=self.metrics.current_randomized_timeout_ms,
        )
        # Fallback rule (§III-B): discard measurements, revert to defaults.
        self.policy.on_election_timeout(self._now())
        self.leader_id = None
        if self.config.prevote:
            self._start_prevote()
        else:
            self._become_candidate()

    def _start_prevote(self) -> None:
        self.role = Role.PRECANDIDATE
        self._prevotes = set()
        self.metrics.prevote_rounds += 1
        self.trace.record(
            self._now(), self.name, "prevote_start", term=self.current_term
        )
        if not self._quorum.acks:  # sole voter: our own grant is the quorum
            self._become_candidate()
            return
        self._solicit(PreVoteRequest, self.current_term + 1)

    def _become_candidate(self) -> None:
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.name
        self.storage.save_hard_state(self.current_term, self.name)
        self._votes = set()
        self._prevotes = set()
        self.metrics.elections_started += 1
        self.trace.record(
            self._now(), self.name, "election_start", term=self.current_term
        )
        if not self._sync():
            return  # crashed persisting our own vote: never campaign on it
        if not self._quorum.acks:  # sole voter: our own vote is the quorum
            self._become_leader()
            return
        self._solicit(VoteRequest, self.current_term)

    def _solicit(self, request: type[PreVoteRequest] | type[VoteRequest], term: int) -> None:
        """Ask every other voter for its (pre-)vote in ``term``."""
        req = request(
            term=term,
            candidate=self.name,
            last_log_index=self.log.last_index,
            last_log_term=self.log.last_term,
        )
        for peer in self._quorum.peers:
            self._rpc(peer, req)
        # Retry with a fresh draw if the poll stalls or the vote splits.
        self._arm_election_timer()

    def _become_leader(self) -> None:
        self.role = Role.LEADER
        self.leader_id = self.name
        self.metrics.times_leader += 1
        self.trace.record(
            self._now(), self.name, "become_leader", term=self.current_term
        )
        self._election_timer.cancel()
        self.policy.on_become_leader(self._now())
        now = self._now()
        next_index = self.log.last_index + 1
        self.progress = {p: Progress(p, next_index, now, now) for p in self.peers}
        self._lease_anchor = None
        # No-op entry: lets this leader commit its predecessors' tail
        # (commit is restricted to current-term entries, §5.4.2).  Reads
        # gate on this index committing (the ReadIndex precondition).
        noop = self.log.append_new(self.current_term, None)
        self._term_start_index = noop.index
        if not self._sync():
            return  # crashed persisting the no-op: nothing was sent yet
        for peer in self.peers:
            pr = self.progress[peer]
            self._send_append(pr)
            self._schedule_heartbeat(pr, first=True)
        self._schedule_quorum_check()

    # ------------------------------------------------------------------ #
    # leader duties
    # ------------------------------------------------------------------ #

    def _hb_timer(self, pr: Progress) -> Timer:
        """Fetch (or create) the timer that beats ``pr`` and cache it on the
        record.  The per-follower callback is bound to the peer's *name*:
        a crash disarms timers without forgetting them, so a later reign
        finds the same timer and it must drive that reign's record."""
        timer = pr.hb_timer = self.timers.timer(
            f"hb/{pr.peer}", functools.partial(self._heartbeat_tick, pr.peer)
        )
        return timer

    def _replicate_to_all(self) -> None:
        progress = self.progress
        for peer in self.peers:
            self._send_append(progress[peer])

    def _schedule_heartbeat(self, pr: Progress, *, first: bool = False) -> None:
        interval = self.policy.heartbeat_interval_ms(pr.peer)
        if first:
            # Independent initial phase per follower loop: real
            # per-follower timers (Go runtime timers on a busy host) carry
            # independent phases, a simulator's would be phase-locked.
            interval *= self._rand()
        interval += _HB_TIMER_JITTER_MS * self._rand()
        (pr.hb_timer or self._hb_timer(pr)).reset(self._clock_scale(interval))

    def _send_heartbeat_to(self, pr: Progress) -> None:
        peer = pr.peer
        meta = self.policy.heartbeat_meta(peer, self._now())
        term = self.current_term
        commit = self.commit_index
        if pr.match < commit:
            commit = pr.match
        if meta is None:
            # Baseline-Raft steady state: term and clamped commit change
            # rarely, so the same immutable request is re-sent as-is.
            req = pr.hb_request
            if req is None or req.term != term or req.commit != commit:
                req = pr.hb_request = HeartbeatRequest(term, self.name, commit)
            size = 64
        else:
            req = HeartbeatRequest(term, self.name, commit, meta)
            size = 88
        self._transmit(self.name, peer, req, self._hb_channel, size)
        self.metrics.heartbeats_sent += 1

    def _heartbeat_tick(self, peer: str) -> None:
        """Per-follower beat: send + re-arm.  Fires once per heartbeat per
        follower — the leader's hottest callback."""
        pr = self.progress.get(peer)
        if pr is None:
            return  # not leading (any more), or the peer left this reign
        if self._batch_buf:
            self._flush_batch()  # beat-bounded latency for buffered writes
            if self._state is not _RUNNING:
                return  # crashed at the batch's persist point
        self._send_heartbeat_to(pr)
        self._schedule_heartbeat(pr)

    def _schedule_quorum_check(self) -> None:
        if not self.config.check_quorum:
            return
        et = self.policy.election_timeout_ms(None)
        # Keep the sampled randomizedTimeout meaningful for leaders too:
        # this is the value the leader would arm if it stepped down now.
        self.metrics.current_randomized_timeout_ms = et * (1.0 + self._rand())
        self.timers.timer("quorum", self._quorum_tick).reset(self._clock_scale(et))

    def _quorum_tick(self) -> None:
        if self.role is not Role.LEADER:
            return
        et = self.policy.election_timeout_ms(None)
        now = self._now()
        quorum = self._quorum
        fresh = 0
        progress = self.progress
        for p in quorum.peers:
            if now - progress[p].last_response <= et:
                fresh += 1
        if fresh < quorum.acks:
            self.trace.record(
                now,
                self.name,
                "quorum_lost",
                term=self.current_term,
                # voters in contact, this leader's own vote included
                active=fresh + quorum.size - quorum.acks,
            )
            self._become_follower(self.current_term, None)
            return
        self._schedule_quorum_check()

    def _send_append(self, pr: Progress, *, force: bool = False) -> None:
        sent_at = pr.snapshot_sent_at
        if sent_at is not None:
            if self._now() - sent_at <= _APPEND_PIPELINE_STALL_MS:
                return  # snapshot transfer in flight; wait for its ack
            pr.snapshot_sent_at = None  # transfer presumed lost
        # After a rejection knocked the pipe back: one append at a time
        # until a success re-anchors next (etcd StateProbe).
        cap = 1 if pr.probing else _MAX_INFLIGHT_APPENDS
        if not force and pr.inflight >= cap:
            return  # pipeline full; the next response will pull more
        log = self.log
        while True:
            next_i = pr.next
            if next_i > log.last_index + 1:
                next_i = pr.next = log.last_index + 1
            if next_i < log.first_index:
                # The entries this follower needs are compacted away — fall
                # back to shipping the durable snapshot (§7).
                self._send_snapshot(pr)
                return
            pr.inflight += 1
            prev = next_i - 1
            entries = log.slice_from(next_i, _MAX_ENTRIES_PER_APPEND)
            self._rpc(
                pr.peer,
                AppendEntriesRequest(
                    term=self.current_term,
                    leader=self.name,
                    prev_log_index=prev,
                    prev_log_term=log.term_at(prev),
                    entries=entries,
                    leader_commit=self.commit_index,
                ),
                size=64 + 96 * len(entries),
            )
            self.metrics.appends_sent += 1
            if not entries or not self._pipelining or pr.probing:
                break
            # Optimistic advance (etcd StateReplicate): assume this window
            # lands and stream the next suffix without waiting for the
            # ack; a rejection resets next from the conflict hint.
            pr.next = next_i + len(entries)
            if pr.next > log.last_index or pr.inflight >= _MAX_INFLIGHT_APPENDS:
                break

    def _send_snapshot(self, pr: Progress) -> None:
        """Ship a snapshot to a follower behind ``log.first_index``.

        The durable snapshot is refreshed at transfer time when it lags
        ``last_applied`` by more than the retain margin (etcd builds its
        ``MsgSnap`` payload from applied state the same way): the receiver
        then replays at most a margin-scale tail afterwards, keeping
        catch-up cost independent of both history length and compaction
        phase.  One transfer per follower at a time (tracked in
        ``Progress.snapshot_sent_at``); a transfer unacknowledged past the
        append stall window is presumed lost and retried by ``_send_append``.
        """
        snap = self.snapshot
        applied = self.last_applied
        if snap is None or applied - snap.last_included_index > self._compaction_margin:
            snap = self.snapshot = Snapshot(
                applied,
                self.log.term_at(applied),
                self.state_machine.snapshot(),
                self._configs.at(applied),
            )
            self.storage.save_snapshot(snap)
            self.metrics.snapshots_taken += 1
        pr.snapshot_sent_at = self._now()
        req = InstallSnapshotRequest(
            self.current_term,
            self.name,
            snap.last_included_index,
            snap.last_included_term,
            snap.data,
            snap.config,
        )
        try:
            n_items = len(snap.data)
        except TypeError:
            n_items = 0
        self._rpc(pr.peer, req, size=128 + 32 * n_items)
        self.trace.record(
            self._now(),
            self.name,
            "snapshot_send",
            to=pr.peer,
            snapshot_index=snap.last_included_index,
            term=self.current_term,
        )

    def _commit_to(self, candidate: int) -> None:
        """Majority-match commit, restricted to current-term entries.

        ``candidate`` comes from :func:`quorum_match`, re-evaluated
        whenever a voter's ``match`` moves or the voter set changes.
        """
        if candidate > self.commit_index and self.log.term_at(candidate) == self.current_term:
            self.commit_index = candidate
            self.metrics.commit_advances += 1
            self._apply_committed()

    def _apply_committed(self) -> None:
        # What no entry of the batch can change is read once; the two
        # indices and the role are re-read per entry (a config entry's
        # commit may step this leader down, or propose and commit more).
        entry_at = self.log.entry_at
        apply = self.state_machine.apply
        metrics = self.metrics
        pending_client = self._pending_client
        while self.last_applied < self.commit_index:
            self.last_applied = index = self.last_applied + 1
            command = entry_at(index).command
            if command is None:
                result = None
            elif command.__class__ is ConfigChange:
                # Membership changes took effect at append time; commit
                # only finalizes them (trace + self-removal step-down).
                result = None
                self._on_config_committed(index, command)
                pending_client = self._pending_client  # a step-down swaps it
            else:
                result = apply(command)
            metrics.entries_applied += 1
            pending = pending_client.pop(index, None)
            if pending is not None and self.role is Role.LEADER:
                self._reply(pending[0], pending[1], ok=True, result=result)
        if self._read_round is not None:
            # A quorum-confirmed ReadIndex round may have been waiting for
            # the commit index to reach its read_index (fresh leaders: the
            # round registers before the term-start no-op commits).
            self._serve_read_round()
        if self._compaction_threshold > 0:
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Snapshot + compact once the retained log exceeds the threshold.

        Policy (checked after every apply batch):

        * trigger on the *retained* entry count (``last_index − frontier``)
          crossing ``compaction_threshold`` — the quantity the memory
          bound is stated in;
        * snapshot the state machine at ``last_applied`` (the image and
          the frontier candidate are exactly in sync there);
        * compact to ``last_applied − compaction_retain_margin``, keeping
          a catch-up margin of already-snapshotted entries in the log;
        * a leader additionally never compacts past the match index of a
          *live* follower (one that responded within an election timeout)
          — those catch up from the log for free; an unresponsive one
          stops gating memory and is served a snapshot on return;
        * the frontier only moves in chunks larger than the margin: a
          snapshot is a full O(state) copy, so when the compactable window
          merely *creeps* (a live follower persistently behind, or a
          threshold configured at or below the margin) the work is
          deferred until a margin's worth of progress has accumulated
          instead of re-snapshotting on every apply batch.
        """
        log = self.log
        if log.last_index - log.last_included_index <= self._compaction_threshold:
            return
        upto = self.last_applied - self._compaction_margin
        if self.role is Role.LEADER:
            now = self._now()
            et = self.policy.election_timeout_ms(None)
            for pr in self.progress.values():
                if now - pr.last_response <= et and pr.match < upto:
                    upto = pr.match
        if upto - log.last_included_index <= self._compaction_margin:
            return
        applied = self.last_applied
        self.snapshot = Snapshot(
            applied,
            log.term_at(applied),
            self.state_machine.snapshot(),
            self._configs.at(applied),
        )
        # WAL order makes snapshot-then-compact atomic across a crash: the
        # snapshot record precedes the compact record in the same pending
        # tail, so recovery sees both, the snapshot alone, or neither —
        # never a moved log frontier without its covering image.
        self.storage.save_snapshot(self.snapshot)
        dropped = log.compact(upto)
        self._configs.rebase(upto)
        self.metrics.snapshots_taken += 1
        self.metrics.compactions += 1
        self.trace.record(
            self._now(),
            self.name,
            "log_compact",
            upto=upto,
            snapshot_index=applied,
            dropped=dropped,
            retained=log.last_index - upto,
        )

    # ------------------------------------------------------------------ #
    # message dispatch
    # ------------------------------------------------------------------ #

    #: Exact-type dispatch table (payload classes are never subclassed);
    #: populated after the class body, once the handlers exist.
    _DISPATCH: ClassVar[dict[type, Callable[["RaftNode", str, Any], None]]] = {}

    def deliver(self, sender: str, payload: Any) -> None:
        """Fabric entry point; overrides Process.deliver to dispatch
        directly (one call layer fewer on the per-message path)."""
        if self._state is not _RUNNING:
            return
        handler = _DISPATCH_GET(payload.__class__)
        if handler is None:
            raise TypeError(
                f"{self.name}: unknown payload {type(payload).__name__}"
            )
        handler(self, sender, payload)

    # -- leader liveness ---------------------------------------------------- #

    def _observe_leader_message(self, term: int, leader: str) -> None:
        """Common handling for any message from a node claiming leadership."""
        if self.role is Role.LEADER:
            if term > self.current_term:
                self._become_follower(term, leader)
            elif leader != self.name:
                # Two leaders in one term would break election safety; the
                # trace record lets invariant tests catch it loudly.
                self.trace.record(
                    self._now(),
                    self.name,
                    "safety_violation_two_leaders",
                    term=term,
                    other=leader,
                )
                self._become_follower(term, leader)
        elif term > self.current_term or self.role in (
            Role.PRECANDIDATE,
            Role.CANDIDATE,
        ):
            # Equal-term case: a live leader spoke while we were polling or
            # campaigning — abort and fall back in line (Fig. 6b's saviour).
            self._become_follower(term, leader)
        if self.leader_id != leader:
            prev = self.leader_id
            self.leader_id = leader
            self.policy.on_leader_change(leader, self._now())
            self.trace.record(
                self._now(),
                self.name,
                "leader_observed",
                term=term,
                leader=leader,
                previous=prev,
            )
        self.last_leader_contact = self._now()

    def _responder(self, term: int, follower: str) -> Progress | None:
        """Common gate for every follower→leader response: a higher term
        deposes this leader, a stale one (or a non-leader) ignores it, and a
        straggler from a peer removed this reign has no record.  An
        equal-term response is leader-contact evidence whatever it carries,
        so the record returned is already stamped — that feeds
        check-quorum and the lease anchor, which it marks for a recount."""
        if term > self.current_term:
            self._become_follower(term, None)
            return None
        if self.role is not Role.LEADER or term < self.current_term:
            return None
        pr = self.progress.get(follower)
        if pr is not None:
            pr.last_response = self._now()
            self._lease_anchor = None
        return pr

    # -- heartbeats ----------------------------------------------------------- #

    def _on_heartbeat(self, sender: str, m: HeartbeatRequest) -> None:
        self.metrics.heartbeats_received += 1
        term = m.term
        leader = m.leader
        if term < self.current_term:
            stale = HeartbeatResponse(self.current_term, self.name, self.log.last_index)
            self._transmit(self.name, leader, stale, self._hb_channel, 96)
            return
        now = self._now()
        if (
            term == self.current_term
            and self.role is Role.FOLLOWER
            and self.leader_id == leader
        ):
            # Steady-state fast path of _observe_leader_message: nothing
            # to transition, only the lease freshness to stamp.
            self.last_leader_contact = now
        else:
            self._observe_leader_message(term, leader)
        if m.commit > self.commit_index:
            self.commit_index = min(m.commit, self.log.last_index)
            self._apply_committed()
        policy = self.policy
        meta = policy.on_heartbeat(leader, m.meta, now)
        # Inline of _arm_election_timer: this reset happens on every
        # received heartbeat, the follower's hottest operation.  Pinned by
        # tests/raft/test_heartbeat_fastpath.py::test_on_heartbeat_rearm_matches_arm_election_timer
        base = policy.election_timeout_ms(self.leader_id)
        pos = self._rand_pos
        buf = self._rand_buf
        if buf is None or pos >= _RAND_BLOCK:
            buf = self._rand_buf = self.rng.random(_RAND_BLOCK).tolist()
            pos = 0
        self._rand_pos = pos + 1
        randomized = base * (1.0 + buf[pos])
        self.metrics.current_randomized_timeout_ms = randomized
        self._election_timer.reset(self._clock_scale(randomized))
        term = self.current_term
        lli = self.log.last_index
        if meta is None:
            # Baseline-Raft steady state: re-use the cached immutable
            # response while (term, last_log_index) are stable.
            resp = self._hb_resp_cache
            if resp is None or resp.term != term or resp.last_log_index != lli:
                resp = HeartbeatResponse(term, self.name, lli)
                self._hb_resp_cache = resp
            size = 64
        else:
            resp = HeartbeatResponse(term, self.name, lli, meta)
            size = 88
        self._transmit(self.name, leader, resp, self._hb_channel, size)

    def _on_heartbeat_response(self, sender: str, m: HeartbeatResponse) -> None:
        pr = self._responder(m.term, m.follower)
        if pr is None:
            return
        now = pr.last_response
        self.policy.on_heartbeat_response(pr.peer, m.meta, now)
        if pr.match < self.log.last_index:
            # The follower lags: push entries (etcd triggers MsgApp off
            # MsgHeartbeatResp the same way).  Recovery path for a
            # *stalled* pipeline only: either nothing is in flight, or the
            # in-flight messages' acks were lost long ago (e.g. across a
            # follower pause).  A live pipeline keeps its own accounting —
            # resetting it here would mint phantom send slots and the
            # send/response chains would multiply.
            if (
                pr.inflight == 0
                or now - pr.last_append_response > _APPEND_PIPELINE_STALL_MS
            ):
                pr.inflight = 0
                self._send_append(pr, force=True)

    # -- replication ------------------------------------------------------------ #

    def _on_append_entries(self, sender: str, m: AppendEntriesRequest) -> None:
        if m.term < self.current_term:
            self._rpc(
                m.leader,
                AppendEntriesResponse(
                    term=self.current_term,
                    follower=self.name,
                    success=False,
                    match_index=0,
                ),
            )
            return
        self._observe_leader_message(m.term, m.leader)
        ok, match, conflict = self.log.try_append(
            m.prev_log_index, m.prev_log_term, m.entries
        )
        if ok and m.entries and self._configs.adopt(self.log, m.entries):
            # Applied-at-append: config entries adopted (or retracted,
            # after a conflict truncation) before the commit index moves.
            old = self.membership
            self._refresh_membership()
            self._apply_membership_change(old, self.membership)
        if ok and m.leader_commit > self.commit_index:
            self.commit_index = max(self.commit_index, min(m.leader_commit, match))
            self._apply_committed()
        # Ack-after-sync (§5.2): the appended entries — and any lazily
        # pending term bump — must be durable before the response leaves.
        if not self._sync():
            return  # crashed at the persist point
        self._arm_election_timer()
        self._rpc(
            m.leader,
            AppendEntriesResponse(
                term=self.current_term,
                follower=self.name,
                success=ok,
                match_index=match,
                conflict_index=conflict,
                prev_log_index=m.prev_log_index,
            ),
        )

    def _on_append_response(self, sender: str, m: AppendEntriesResponse) -> None:
        pr = self._responder(m.term, m.follower)
        if pr is None:
            return
        pr.last_append_response = pr.last_response
        if pr.inflight > 0:
            pr.inflight -= 1
        if m.success:
            pr.probing = False
            acked = m.match_index
            if acked > pr.match:
                pr.match = acked
                # Under pipelining optimistic sends may have pushed next
                # past this ack already; never roll the stream back.
                if not self._pipelining or acked >= pr.next:
                    pr.next = acked + 1
                # A learner's ack moves its own progress (promotion reads
                # it) and no quorum count: it has no vote to commit with.
                if pr.peer in self._quorum.voters:
                    self._commit_to(
                        quorum_match(self.progress, self._quorum, self.log.last_index)
                    )
            if pr.match < self.log.last_index:
                self._send_append(pr)
            else:
                self._maybe_promote(pr)
        else:
            if self._pipelining:
                echoed = m.prev_log_index
                if echoed is not None and echoed >= pr.next:
                    # Stale rejection: a pipelined window rejects as a
                    # volley, and we already backed next off below this
                    # probe's prev — re-applying the hint would thrash
                    # the stream backwards.
                    self._send_append(pr)
                    return
                pr.probing = True
            hint = m.conflict_index
            pr.next = hint if hint is not None else max(1, pr.next - 1)
            self._send_append(pr)

    # -- snapshot transfer --------------------------------------------------- #

    def _on_install_snapshot(self, sender: str, m: InstallSnapshotRequest) -> None:
        if m.term < self.current_term:
            self._rpc(
                m.leader,
                InstallSnapshotResponse(self.current_term, self.name, 0),
            )
            return
        self._observe_leader_message(m.term, m.leader)
        s_index = m.last_included_index
        if s_index > self.commit_index:
            # The received image becomes this node's own durable snapshot:
            # a crash right after installation must not lose it.  WAL
            # order matters — the snapshot record goes down *before* the
            # log reset, so a crash that eats the reset still leaves the
            # covering image (recovery adopts its frontier).
            snap = Snapshot(s_index, m.last_included_term, m.data, m.config)
            self.storage.save_snapshot(snap)
            self.log.install_snapshot(s_index, m.last_included_term)
            self.state_machine.restore(m.data)
            self.snapshot = snap
            self.commit_index = s_index
            self.last_applied = s_index
            # The snapshot replaces the log prefix, so it also settles the
            # membership that prefix established — exactly as recovery
            # rebuilds it from a snapshot and the log beyond it.
            old = self.membership
            self._configs.rebuild(self.log, snap)
            self._refresh_membership()
            self._apply_membership_change(old, self.membership)
            self.metrics.snapshots_installed += 1
            self.trace.record(
                self._now(),
                self.name,
                "snapshot_install",
                snapshot_index=s_index,
                term=self.current_term,
                leader=m.leader,
            )
        # else: stale transfer — our commit already covers it; still ack
        # with its index so the leader resumes appends past the transfer
        # (entries at or below our commit index match the leader's).
        if not self._sync():
            return  # crashed persisting the snapshot: the ack must not leave
        self._arm_election_timer()
        self._rpc(
            m.leader,
            InstallSnapshotResponse(self.current_term, self.name, s_index),
        )

    def _on_install_snapshot_response(
        self, sender: str, m: InstallSnapshotResponse
    ) -> None:
        pr = self._responder(m.term, m.follower)
        if pr is None:
            return
        pr.last_append_response = pr.last_response
        pr.snapshot_sent_at = None
        s_index = m.last_included_index
        if s_index > 0:
            if s_index > pr.match:
                pr.match = s_index
                pr.next = s_index + 1
                if pr.peer in self._quorum.voters:  # as in _on_append_response
                    self._commit_to(
                        quorum_match(self.progress, self._quorum, self.log.last_index)
                    )
            elif pr.next <= s_index:
                pr.next = s_index + 1
        if pr.match < self.log.last_index:
            self._send_append(pr)
        else:
            self._maybe_promote(pr)

    # -- pre-vote ------------------------------------------------------------- #

    def _on_prevote_request(self, sender: str, m: PreVoteRequest) -> None:
        granted = (
            m.term >= self.current_term
            and self.log.up_to_date(m.last_log_index, m.last_log_term)
            and not self._lease_valid()
        )
        self._rpc(
            m.candidate,
            PreVoteResponse(
                term=m.term if granted else self.current_term,
                voter=self.name,
                granted=granted,
            ),
        )

    def _on_prevote_response(self, sender: str, m: PreVoteResponse) -> None:
        if not m.granted and m.term > self.current_term:
            self._become_follower(m.term, None)
            return
        if self.role is not Role.PRECANDIDATE:
            return
        quorum = self._quorum
        if m.granted and m.term == self.current_term + 1 and m.voter in quorum.voters:
            self._prevotes.add(m.voter)
            if len(self._prevotes) >= quorum.acks:
                self._become_candidate()

    # -- votes ----------------------------------------------------------------- #

    def _on_vote_request(self, sender: str, m: VoteRequest) -> None:
        if m.term < self.current_term or (
            m.term > self.current_term and self._lease_valid()
        ):
            # A stale candidate — or etcd's lease protection: a healthy
            # leader is in charge, so we neither adopt the bigger term nor
            # grant the vote.
            self._rpc(
                m.candidate,
                VoteResponse(term=self.current_term, voter=self.name, granted=False),
            )
            self.metrics.votes_rejected += 1
            return
        if m.term > self.current_term:
            self._become_follower(m.term, None)
        granted = self.voted_for in (None, m.candidate) and self.log.up_to_date(
            m.last_log_index, m.last_log_term
        )
        if granted:
            self._grant_vote(m.candidate)
        else:
            self.metrics.votes_rejected += 1
        # Ack-after-sync (§5.2): the grant — or just the adopted term —
        # must be durable before the response leaves the node.
        if not self._sync():
            return  # crashed at the persist point
        if granted:
            self._arm_election_timer()  # granting defers our own candidacy
        self._rpc(
            m.candidate,
            VoteResponse(term=self.current_term, voter=self.name, granted=granted),
        )

    def _on_vote_response(self, sender: str, m: VoteResponse) -> None:
        if m.term > self.current_term:
            self._become_follower(m.term, None)
            return
        if self.role is not Role.CANDIDATE or m.term < self.current_term:
            return
        quorum = self._quorum
        if m.granted and m.voter in quorum.voters:
            self._votes.add(m.voter)
            if len(self._votes) >= quorum.acks:
                self._become_leader()

    # -- clients ----------------------------------------------------------------- #

    def _on_client_request(self, sender: str, m: ClientRequest) -> None:
        if self.role is not Role.LEADER:
            self.metrics.client_redirects += 1
            self._reply(sender, m.request_id, ok=False, leader_hint=self.leader_id)
            return
        if self._batching:
            buf = self._batch_buf
            buf.append((sender, m.request_id, m.command))
            n = len(buf)
            if n >= _CLIENT_BATCH_MAX:
                self._flush_batch()
            elif n == 1 and self._batch_window_ms > 0.0:
                # First command of a fresh batch arms the window timer;
                # with window 0 the next heartbeat beat flushes instead.
                self.timers.timer("batch", self._flush_batch).reset(
                    self._clock_scale(self._batch_window_ms)
                )
            return
        entry = self.log.append_new(self.current_term, m.command)
        self._pending_client[entry.index] = (sender, m.request_id)
        self._replicate_appended()

    def _flush_batch(self) -> None:
        """Drain buffered client commands: one log append per command but
        a single AppendEntries volley per follower — the leader-side
        batching half of the client-serving fast path."""
        buf = self._batch_buf
        if not buf or self.role is not Role.LEADER:
            return
        self._batch_buf = []
        term = self.current_term
        log = self.log
        pending = self._pending_client
        for client, req_id, command in buf:
            entry = log.append_new(term, command)
            pending[entry.index] = (client, req_id)
        self.metrics.batches_flushed += 1
        self.metrics.batched_commands += len(buf)
        self._replicate_appended()

    def _replicate_appended(self) -> None:
        """Fan freshly appended client entries out to every follower."""
        # The leader's own log counts toward the quorum, so its append
        # must be durable before replication fans out (§5.2).
        if not self._sync():
            return  # crashed persisting the append
        if not self._quorum.acks:
            # Sole-voter fast path: the leader's own log is the quorum.
            # Learners (if any) still get the entries via the fan-out.
            self.commit_index = self.log.last_index
            self._apply_committed()
        self._replicate_to_all()

    # -- read fast path (ReadIndex quorum round / leader lease) ------------ #

    def _on_client_read(self, sender: str, m: ClientReadRequest) -> None:
        if self.role is not Role.LEADER:
            self.metrics.client_redirects += 1
            self._reply(sender, m.request_id, ok=False, leader_hint=self.leader_id)
            return
        if self._lease_reads:
            if self._lease_valid_for_reads():
                self.metrics.reads_served_lease += 1
                self._reply(
                    sender, m.request_id, ok=True, result=self.state_machine.read(m.command)
                )
                return
            self.metrics.lease_fallbacks += 1
            self.trace.record(
                self._now(), self.name, "lease_fallback", term=self.current_term
            )
        if not self._quorum.acks:
            # Sole-voter: this log IS the quorum.  The current-term no-op
            # sits at last_index, so committing through it is exactly the
            # §5.4.2-sanctioned commit; the read serves right after.
            if self.commit_index < self.log.last_index:
                self.commit_index = self.log.last_index
                self._apply_committed()
            self.metrics.reads_served_readindex += 1
            self._reply(
                sender, m.request_id, ok=True, result=self.state_machine.read(m.command)
            )
            return
        self._read_buf.append((sender, m.request_id, m.command))
        if self._read_round is None:
            self._start_read_round()

    def _lease_valid_for_reads(self) -> bool:
        """Leader-lease check for the read fast path (hot under a read
        load — once per lease read — but all lease arithmetic stays off
        the heartbeat path).

        The lease anchors at the ``acks_needed``-th freshest voter-peer
        response: at that instant this leader plus those peers formed a
        quorum that had all heard from it, and — with check-quorum's
        lease-protected voting on — none of them grants a vote for
        ``policy.lease_bound_ms()`` after *its own* contact.  Any rival
        leader needs a vote from that quorum, so no newer write can
        commit before the lease expires.  ``lease_drift_margin_ms``
        absorbs what the anchor timestamp does not see: the response's
        one-way flight plus the one-beat staleness of the piggybacked
        tuned-Et report.

        The anchor moves only when a response is stamped (``_responder``),
        a reign starts or the quorum changes, so it is kept between those
        and found again on the first read after one
        (:meth:`_find_lease_anchor`); the policy keeps its bound the same
        way.  Testing the anchor alone is the count of fresh responses
        ``now - t < duration`` reaching ``acks_needed``, because
        ``now - t`` is monotone in ``t``.

        Serving additionally requires this term's no-op committed — the
        same precondition as ReadIndex (§6.4): before that, the state
        machine may miss commits from previous terms.
        """
        if not self.config.check_quorum:
            return False  # voters would not refuse rivals; no exclusivity
        if self.commit_index < self._term_start_index:
            return False
        bound = self.policy.lease_bound_ms()
        if bound is None:
            return False  # some voter may still be on its default Et
        duration = bound - self._lease_margin_ms
        if duration <= 0.0:
            return False
        anchor = self._lease_anchor
        if anchor is None:
            anchor = self._lease_anchor = self._find_lease_anchor()
        return self._now() - anchor < duration

    def _find_lease_anchor(self) -> float:
        """The ``acks_needed``-th freshest voter-peer ``last_response``;
        ``inf`` for a sole voter, whose exclusivity is unconditional."""
        needed = self._quorum.acks
        if needed == 0:
            return math.inf
        progress = self.progress
        stamps = sorted(
            (progress[p].last_response for p in self._quorum.peers), reverse=True
        )
        return stamps[needed - 1]

    def _start_read_round(self) -> None:
        """Open a ReadIndex round covering everything in the read buffer.

        The probe broadcasts strictly *after* its reads register (see
        ReadIndexProbe's docstring for why the order is load-bearing);
        reads arriving while this round is in flight queue for the next.
        """
        seq = self._read_seq = self._read_seq + 1
        read_index = self.commit_index
        if self._term_start_index > read_index:
            read_index = self._term_start_index
        batch = _ReadBatch(seq, read_index, self._read_buf)
        self._read_buf = []
        self._read_round = batch
        probe = ReadIndexProbe(self.current_term, self.name, seq)
        for peer in self._quorum.peers:
            self._rpc(peer, probe, size=64)
        self.metrics.read_probes_sent += 1

    def _on_read_probe(self, sender: str, m: ReadIndexProbe) -> None:
        if m.term >= self.current_term:
            self._observe_leader_message(m.term, m.leader)
        # A stale probe still gets an answer: the higher term deposes the
        # old leader, aborting any round it was counting.
        self._rpc(m.leader, ReadIndexAck(self.current_term, self.name, m.seq), size=64)

    def _on_read_ack(self, sender: str, m: ReadIndexAck) -> None:
        pr = self._responder(m.term, m.follower)
        round_ = self._read_round
        if pr is None or round_ is None or round_.seq != m.seq:
            return  # not ours to count, or an already-settled round
        quorum = self._quorum
        if pr.peer not in quorum.voters:
            return
        round_.acks.add(pr.peer)
        if len(round_.acks) < quorum.acks:
            return
        round_.confirmed = True
        self._serve_read_round()

    def _serve_read_round(self) -> None:
        """Serve the in-flight ReadIndex round once a quorum has confirmed
        it *and* the commit index has reached its read_index (whichever of
        the ack and the apply comes last calls this), then open the next
        round for reads that queued meanwhile."""
        round_ = self._read_round
        if (
            round_ is None
            or not round_.confirmed
            or self.commit_index < round_.read_index
        ):
            return
        self._read_round = None
        read = self.state_machine.read
        for client, req_id, command in round_.reads:
            self._reply(client, req_id, ok=True, result=read(command))
        self.metrics.reads_served_readindex += len(round_.reads)
        if self._read_buf:
            self._start_read_round()


RaftNode._DISPATCH = {
    HeartbeatRequest: RaftNode._on_heartbeat,
    HeartbeatResponse: RaftNode._on_heartbeat_response,
    AppendEntriesRequest: RaftNode._on_append_entries,
    AppendEntriesResponse: RaftNode._on_append_response,
    InstallSnapshotRequest: RaftNode._on_install_snapshot,
    InstallSnapshotResponse: RaftNode._on_install_snapshot_response,
    PreVoteRequest: RaftNode._on_prevote_request,
    PreVoteResponse: RaftNode._on_prevote_response,
    VoteRequest: RaftNode._on_vote_request,
    VoteResponse: RaftNode._on_vote_response,
    ClientRequest: RaftNode._on_client_request,
    ClientReadRequest: RaftNode._on_client_read,
    ReadIndexProbe: RaftNode._on_read_probe,
    ReadIndexAck: RaftNode._on_read_ack,
}
#: Module-level bound lookup: saves the class-attribute hop per message.
_DISPATCH_GET = RaftNode._DISPATCH.get
