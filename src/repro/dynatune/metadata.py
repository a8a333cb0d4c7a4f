"""Heartbeat piggyback metadata (Fig. 3 of the paper).

Dynatune adds *no additional messages* to Raft: everything rides on the
existing heartbeat exchange (§III-B).  The leader attaches
:class:`HeartbeatMeta` to each heartbeat; the follower answers with
:class:`HeartbeatResponseMeta`.

The RTT protocol (Fig. 3a) keeps all clock arithmetic on the **leader's**
clock: the leader stamps ``send_ts``, the follower echoes it untouched, and
the leader computes ``RTT = now − echo_ts`` on receipt.  The *measured* RTT
then travels to the follower inside the *next* heartbeat
(``rtt_sample_ms``).  This is why the scheme works in a partially
synchronous system with unsynchronised clocks, and why packet loss requires
no cleanup: a lost heartbeat simply never produces a sample, and a
reordered response still carries the matching original timestamp.

The loss protocol (Fig. 3b) needs only ``seq``: the follower infers losses
from gaps in the sequence it has received.

Both records ride inside the heartbeat payloads of
:mod:`repro.raft.messages` and follow their idiom: slotted dataclasses,
immutable by convention, equal only to themselves.
"""

from __future__ import annotations

import dataclasses

__all__ = ["HeartbeatMeta", "HeartbeatResponseMeta"]


@dataclasses.dataclass(slots=True, eq=False)
class HeartbeatMeta:
    """Leader → follower metadata, one per heartbeat.

    Attributes:
        seq: per leader-follower-path sequential heartbeat ID (§III-C2).
        send_ts: leader-clock timestamp at transmission (§III-C1).
        rtt_sample_ms: the RTT the leader measured from the *previous*
            response on this path, or ``None`` if none exists yet (first
            heartbeat after election, or all responses so far were lost).
        rtt_sample_seq: monotone id of the RTT measurement.  When responses
            are lost the leader re-sends its latest measurement on several
            consecutive heartbeats; the follower uses this id to record
            each *measurement* exactly once instead of over-weighting a
            stale value.
    """

    seq: int
    send_ts: float
    rtt_sample_ms: float | None = None
    rtt_sample_seq: int = 0


@dataclasses.dataclass(slots=True, eq=False)
class HeartbeatResponseMeta:
    """Follower → leader metadata, one per heartbeat response.

    Attributes:
        echo_seq: the ``seq`` of the heartbeat being answered.
        echo_ts: the ``send_ts`` of the heartbeat being answered, echoed
            verbatim (leader-clock value; the follower never interprets it).
        tuned_h_ms: the heartbeat interval the follower computed for this
            path (§III-D2), or ``None`` while the follower is still in
            Step 0 (fewer than ``minListSize`` samples).
        tuned_et_ms: the election timeout the follower is currently
            applying toward this leader, or ``None`` while on the
            default.  The leader's lease arithmetic needs a lower bound
            on the ``Et`` any voter would wait before granting a vote
            (see ``TuningPolicy.lease_bound_ms``); piggybacking the tuned
            value keeps that bound tight without extra messages — the
            same "no additional communication" framing as the rest of
            the metadata.
    """

    echo_seq: int
    echo_ts: float
    tuned_h_ms: float | None = None
    tuned_et_ms: float | None = None
