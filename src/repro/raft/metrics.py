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
    """Counters for one Raft node.

    Each counter is read by an experiment or the benchmark, or is a test
    seam for an event the node records nowhere else; an event the node
    traces is read from its trace record instead.
    """

    prevote_rounds: int = 0
    elections_started: int = 0
    times_leader: int = 0
    heartbeats_sent: int = 0
    #: Test seam.
    heartbeats_received: int = 0
    appends_sent: int = 0
    #: Test seam.
    votes_rejected: int = 0
    entries_applied: int = 0
    #: Times the leader's commit index moved forward via quorum match
    #: (one bump may cover many entries; see RaftNode._commit_to).
    commit_advances: int = 0
    client_redirects: int = 0
    #: Client-serving fast path (all 0 with batching/reads unused).
    batches_flushed: int = 0
    batched_commands: int = 0
    #: Test seam.
    read_probes_sent: int = 0
    reads_served_readindex: int = 0
    reads_served_lease: int = 0
    lease_fallbacks: int = 0
    #: Test seam.
    reads_failed: int = 0
    #: Log-compaction lifecycle (0 everywhere while compaction is off).
    snapshots_taken: int = 0
    compactions: int = 0
    snapshots_installed: int = 0
    #: The currently armed randomizedTimeout (ms); kept current by the node
    #: every time the election timer (or the leader's quorum timer) is armed.
    current_randomized_timeout_ms: float = 0.0
