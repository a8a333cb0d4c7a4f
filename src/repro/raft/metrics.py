"""Per-node counters and the randomizedTimeout trace.

The paper's figures sample two node-internal quantities that are not
ordinary log events: the current ``randomizedTimeout`` (Fig. 6 plots the
f+1-smallest across the cluster every second) and role/election counters
(§IV-C2 verifies "no unnecessary elections occurred").  This module keeps
them cheap to record and easy to query.
"""

from __future__ import annotations

import dataclasses

__all__ = ["NodeMetrics"]


@dataclasses.dataclass(slots=True)
class NodeMetrics:
    """Counters for one Raft node."""

    election_timeouts: int = 0
    prevote_rounds: int = 0
    elections_started: int = 0
    times_leader: int = 0
    step_downs: int = 0
    quorum_step_downs: int = 0
    heartbeats_sent: int = 0
    heartbeats_received: int = 0
    heartbeat_responses_received: int = 0
    appends_sent: int = 0
    appends_received: int = 0
    votes_granted: int = 0
    votes_rejected: int = 0
    prevotes_granted: int = 0
    prevotes_rejected: int = 0
    entries_applied: int = 0
    #: Times the leader's commit index moved forward via quorum match
    #: (one bump may cover many entries; see RaftNode._commit_to).
    commit_advances: int = 0
    client_requests: int = 0
    client_redirects: int = 0
    #: Client-serving fast path (all 0 with batching/reads unused).
    client_reads: int = 0
    batches_flushed: int = 0
    batched_commands: int = 0
    read_probes_sent: int = 0
    reads_served_readindex: int = 0
    reads_served_lease: int = 0
    lease_fallbacks: int = 0
    reads_failed: int = 0
    #: Log-compaction lifecycle (0 everywhere while compaction is off).
    snapshots_taken: int = 0
    compactions: int = 0
    entries_compacted: int = 0
    snapshots_sent: int = 0
    snapshots_installed: int = 0
    #: Membership-change lifecycle (0 everywhere on a static cluster).
    config_changes_appended: int = 0
    config_changes_committed: int = 0
    config_changes_rejected: int = 0
    #: Learner→voter promotions this node proposed as leader.
    learner_promotions: int = 0
    #: Whether this node joined as a learner and was later promoted —
    #: paired with ``snapshots_installed`` it asserts "snapshot-caught-up
    #: before voting" for every joiner.
    promoted_to_voter: int = 0
    #: The currently armed randomizedTimeout (ms); kept current by the node
    #: every time the election timer (or the leader's quorum timer) is armed.
    current_randomized_timeout_ms: float = 0.0
