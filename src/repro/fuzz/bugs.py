"""Deterministic safety-bug injection — the oracle's proof of life.

A fuzzer whose oracle has never caught anything is indistinguishable from
one that cannot.  These injectors plant known, deterministic safety bugs
into an otherwise healthy cluster so tests and CI can assert the whole
pipeline — generation, workload, safety checking, linearizability
checking, shrinking — actually fires end to end:

* ``commit_rewrite`` — at a fixed virtual time, rewrite the term of the
  entry at the victim's current commit index (a committed slot).  This is
  the "commit-index regression / committed-entry loss" bug class; the
  :class:`~repro.scenarios.safety.SafetyChecker`'s no-committed-entry-loss
  property catches it.
* ``stale_apply`` — every replica's state machine silently drops the
  N-th put while acknowledging it (replicas stay identical, so no safety
  property trips).  Only the *client-facing* oracle sees it: a later get
  returns the overwritten value and the history stops being linearizable.
* ``ack_before_sync`` — every node's persist barrier (``RaftNode._sync``)
  starts lying: it reports success without ever reaching the disk, so
  vote grants, append acks and commit decisions all externalize state
  that only exists in the volatile WAL tail.  Two seconds later a
  cluster-wide power loss fires (every node crashes at once) and the lie
  comes due: entries whose acknowledgements were counted into quorums
  vanish from every replica — the §5.2 bug class the durable-storage
  engine's ack-after-sync discipline exists to prevent, in its classic
  real-world shape (lying-fsync firmware + fleet power event).  The
  linearizability oracle catches the acked-then-lost writes, and the
  :class:`~repro.scenarios.safety.SafetyChecker`'s no-committed-entry-loss
  property the overwritten slots; on ideal storage it is vacuous (the
  trial must run ``disk=True``).
* ``stale_lease_under_skew`` — every leader's quorum-freshness
  bookkeeping starts anchoring at its single *freshest* peer response
  instead of the ``acks_needed``-th freshest; both consumers inherit the
  bug (check-quorum never steps the leader down, and the lease check —
  which additionally drops its drift margin — never lapses).  One chatty
  peer is not a quorum: fence the leader off from everyone *but* that
  peer (the gray-failure split) and the leader keeps serving lease reads
  indefinitely while the majority elects a rival and commits new
  writes — every lease read in that window returns stale data.  Clock
  skew widens the exposure (a skewed anchor ages at the wrong rate),
  which is what the dropped margin existed to absorb.  No safety
  property trips — replicas never diverge; only the client-facing
  linearizability oracle sees the stale read.  Vacuous unless the trial
  runs ``lease_reads=True``.
* ``greedy_remove`` — whenever a leader appends a ``remove`` config
  change, the resulting configuration silently sheds one *extra* voter,
  turning a one-at-a-time change into a two-at-a-time change whose old
  and new quorums need not intersect.  It fires only through the
  reconfiguration path, so shrinking a trial it fails keeps the
  membership step in the minimal scenario; the
  :class:`~repro.scenarios.safety.SafetyChecker`'s membership invariants
  (one-at-a-time, quorum overlap) catch it.

Injectors mutate one concrete cluster instance; they are installed inside
the trial worker, never pickled.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.cluster.builder import Cluster
from repro.raft.log import LogEntry
from repro.raft.state_machine import KVCommand, KVStore
from repro.raft.types import Role
from repro.sim.events import PRIORITY_CONTROL
from repro.sim.process import ProcessState

__all__ = ["BUG_KINDS", "install_bug"]

BUG_KINDS: tuple[str, ...] = (
    "commit_rewrite",
    "stale_apply",
    "greedy_remove",
    "ack_before_sync",
    "stale_lease_under_skew",
)

_NEG_INF = float("-inf")


def _commit_rewrite(cluster: Cluster) -> None:
    """Rewrite the committed tail of one running node's log.

    Every entry from the victim's commit index to its log end gets its
    term bumped by 1000, and the victim's ``current_term`` follows suit —
    keeping the *structural* log invariants (term monotonicity) intact so
    the protocol keeps running, while the *semantic* one (committed
    entries are immutable) is now broken.  The inflated log tends to win
    the next election and replicate the corruption, which is exactly how
    a real commit-safety bug metastasizes.
    """
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]
        if node.state is ProcessState.RUNNING and node.commit_index >= 1:
            index = node.commit_index
            if index <= node.log.last_included_index:
                # The slot is inside the compacted prefix; corrupt from the
                # first physically present entry instead.
                index = node.log.first_index
                if index > node.log.last_index:
                    continue  # fully compacted log: nothing to rewrite
            old_term = node.log.term_at(index)
            # Reach into the log the way real corruption would: no API
            # grows a "rewrite committed entries" method for a bug injector.
            entries = node.log._entries
            for i in range(index - node.log.last_included_index - 1, len(entries)):
                e = entries[i]
                entries[i] = LogEntry(
                    term=e.term + 1_000, index=e.index, command=e.command
                )
            # Deliberate protocol-state corruption: this injector exists to
            # prove the commit-safety oracle bites.
            node.current_term += 1_000  # repolint: disable=state-protected-write
            cluster.trace.record(
                cluster.loop.now,
                name,
                "bug_commit_rewrite",
                index=index,
                old_term=old_term,
            )
            return
    # Nobody committed anything yet: the bug has nothing to corrupt and
    # this trial is vacuously clean.


class _LossyKV(KVStore):
    """A KVStore that silently drops its ``drop_nth`` put (1-based)."""

    def __init__(self, drop_nth: int) -> None:
        super().__init__()
        self._drop_nth = drop_nth
        self._puts_seen = 0

    def apply(self, command: Any) -> Any:
        if isinstance(command, KVCommand) and command.op == "put":
            self._puts_seen += 1
            if self._puts_seen == self._drop_nth:
                # Acknowledge without storing.  Every replica counts the
                # same committed puts in the same order, so the divergence
                # from the spec is identical cluster-wide.
                self.applied_count += 1
                return command.value
        return super().apply(command)

    def reset(self) -> None:
        super().reset()
        self._puts_seen = 0


def _ack_before_sync(cluster: Cluster, crash_after_ms: float = 2_000.0) -> None:
    """Make every persist barrier lie, then collect with a power loss.

    The wrapped ``_sync`` returns ``True`` without calling
    ``storage.sync()``, so every vote grant, append ack and commit
    decision from here on externalizes state that lives only in the
    unsynced WAL tail.  ``crash_after_ms`` later the whole cluster loses
    power at once — every replica's volatile tail evaporates, taking
    acked (and typically committed) client writes with it.  Nodes come
    back via the simdisk auto-recovery the disk trials configure, and the
    post-recovery cluster serves reads that contradict the pre-crash
    acks.  Vacuous on ideal storage (there is nothing volatile to lose);
    the trial must run ``disk=True``.
    """
    victims = []
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]
        if node.storage.kind == "ideal":
            continue

        def broken_sync() -> bool:
            return True

        node._sync = broken_sync  # type: ignore[method-assign]
        victims.append(node)
        cluster.trace.record(
            cluster.loop.now, name, "bug_ack_before_sync", crash_after_ms=crash_after_ms
        )
    if not victims:
        return  # ideal storage everywhere: the lie has nothing to lose

    def power_loss() -> None:
        for node in victims:
            if node.state is ProcessState.RUNNING:
                node.crash()

    cluster.loop.schedule_at(
        cluster.loop.now + crash_after_ms, power_loss, priority=PRIORITY_CONTROL
    )


def _stale_lease_under_skew(cluster: Cluster) -> None:
    """Break every node's quorum-freshness judgment at its root.

    The (conceptual) bug is one line of bookkeeping: the leader judges
    "am I still in contact with a quorum?" by its single *freshest*
    voter-peer response instead of the ``acks_needed``-th freshest.  Both
    consumers of that judgment inherit it — the check-quorum step-down
    never fires while one chatty peer keeps acking heartbeats, and the
    read lease (which additionally drops its drift margin) never lapses.
    A leader fenced off from everyone but one peer therefore keeps
    serving lease reads indefinitely while the shielded majority elects
    a rival and commits past it; under clock skew even the honest
    anchor ages at the wrong rate, which is what the dropped margin
    existed to absorb.  No safety property trips — replicas never
    diverge; only the client-facing linearizability oracle sees the
    stale reads.  Vacuous unless the trial runs ``lease_reads=True``.
    """
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]

        def _freshest_ms(_node=node) -> float:
            progress = _node.progress
            return max(
                (progress[p].last_response for p in _node._quorum.peers),
                default=_NEG_INF,
            )

        def buggy_lease(_node=node, _freshest=_freshest_ms) -> bool:
            if not _node.config.check_quorum:
                return False
            if _node.commit_index < _node._term_start_index:
                return False
            bound = _node.policy.lease_bound_ms()
            if bound is None:
                return False
            if _node._quorum.acks == 0:
                return True
            # BUG: one fresh peer is not a quorum, and skipping the
            # margin stops absorbing response flight time and skew.
            return _node._now() - _freshest() < bound

        def buggy_quorum_tick(
            _node=node, _orig=node._quorum_tick, _freshest=_freshest_ms
        ) -> None:
            if _node.role is not Role.LEADER:
                return
            # BUG: the same freshest-anchor bookkeeping keeps check-quorum
            # convinced the quorum is intact as long as anyone answers.
            et = _node.policy.election_timeout_ms(None)
            if _node._quorum.acks > 0 and _node._now() - _freshest() <= et:
                _node._schedule_quorum_check()
                return
            _orig()

        node._lease_valid_for_reads = buggy_lease  # type: ignore[method-assign]
        node._quorum_tick = buggy_quorum_tick  # type: ignore[method-assign]
        cluster.trace.record(cluster.loop.now, name, "bug_stale_lease_under_skew")


def _greedy_remove(cluster: Cluster) -> None:
    """Make every leader's ``remove`` proposal shed one extra voter.

    The wrapped ``propose_config_change`` lets the real one-at-a-time
    change append, then rewrites the fresh config entry in place so its
    resulting configuration drops a second voter too — the appended
    entry replicates and commits carrying a two-voter jump.  The node's
    own name is never the extra victim (the corrupted leader must keep
    running to spread the entry), mirroring how a real bookkeeping bug
    in the reconfiguration path would metastasize.
    """
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]
        orig = node.propose_config_change

        def wrapped(kind: str, target: str, _node=node, _orig=orig) -> bool:
            ok = _orig(kind, target)
            if ok and kind == "remove":
                index, change = _node._configs._changes[-1]
                extras = [
                    v for v in sorted(change.config.voters) if v != _node.name
                ]
                if extras:
                    corrupted = dataclasses.replace(
                        change, config=change.config.without(extras[0])
                    )
                    entries = _node.log._entries
                    pos = index - _node.log.last_included_index - 1
                    e = entries[pos]
                    entries[pos] = LogEntry(
                        term=e.term, index=e.index, command=corrupted
                    )
                    # Deliberate config-record corruption (two-at-a-time
                    # removal): only the membership oracle may catch it.
                    _node._configs._changes[-1] = (index, corrupted)  # repolint: disable=state-protected-write
                    _node._refresh_membership()
                    cluster.trace.record(
                        cluster.loop.now,
                        _node.name,
                        "bug_greedy_remove",
                        index=index,
                        target=target,
                        extra=extras[0],
                    )
            return ok

        node.propose_config_change = wrapped  # type: ignore[method-assign]


def install_bug(cluster: Cluster, kind: str, at_ms: float) -> None:
    """Install bug ``kind`` on ``cluster`` (call before ``start()``).

    ``commit_rewrite`` fires at virtual time ``at_ms``; ``stale_apply``
    replaces every node's state machine immediately (``at_ms`` selects
    nothing for it — the N-th committed put is the trigger).
    """
    if kind == "commit_rewrite":
        cluster.loop.schedule_at(
            at_ms, lambda: _commit_rewrite(cluster), priority=PRIORITY_CONTROL
        )
        return
    if kind == "stale_apply":
        for node in cluster.nodes.values():
            node.state_machine = _LossyKV(drop_nth=3)
        return
    if kind == "greedy_remove":
        # Armed immediately; ``at_ms`` selects nothing — the trigger is
        # the scenario's own remove proposal.
        _greedy_remove(cluster)
        return
    if kind == "ack_before_sync":
        cluster.loop.schedule_at(
            at_ms, lambda: _ack_before_sync(cluster), priority=PRIORITY_CONTROL
        )
        return
    if kind == "stale_lease_under_skew":
        # Armed immediately; ``at_ms`` selects nothing — the trigger is a
        # lease read served while gray-isolated from the quorum.
        _stale_lease_under_skew(cluster)
        return
    raise ValueError(f"unknown bug kind {kind!r}; expected one of {BUG_KINDS}")
