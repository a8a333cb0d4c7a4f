"""Measurement extraction — the paper's log-scraping step (§IV-A).

The paper computes, from server log timestamps:

* **detection time** — leader failure → first follower election timeout;
* **OTS time** — leader failure → new leader elected;
* **election time** — their difference (discussed in §IV-E);
* the **randomizedTimeout** in force at detection (§IV-B1);
* **leaderless (OTS) intervals** for the Fig. 6 background shading;
* per-second **randomizedTimeout samples** for the Fig. 6 main series.

All extraction works on the shared :class:`~repro.sim.tracing.TraceLog`.
For the AWS experiment (Fig. 8) a :class:`~repro.net.topology.ClockModel`
can be supplied: every timestamp is then read through the emitting node's
skewed clock, reproducing the "tens of milliseconds" NTP measurement error
the paper warns about.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.net.topology import ClockModel
from repro.sim.tracing import TraceLog, TraceRecord

__all__ = [
    "FailureEpisode",
    "extract_failure_episodes",
    "leaderless_intervals",
    "total_interval_length",
    "randomized_timeout_matrix",
    "kth_smallest_series",
]

#: Trace kind emitted by the harness when it fails the leader.
LEADER_FAILURE_KIND = "fault_leader_pause"


@dataclasses.dataclass(slots=True, frozen=True)
class FailureEpisode:
    """One induced leader failure and its resolution.

    All ``*_ms`` values are as *measured from logs* — i.e. after clock-model
    skew when one is in use.
    """

    failed_leader: str
    failure_time_ms: float
    detection_time_ms: float | None
    new_leader_time_ms: float | None
    detector: str | None
    new_leader: str | None
    randomized_timeout_at_detection_ms: float | None
    #: Time the (f+1)-th *distinct* node detected — the instant a majority
    #: has lost sight of the leader, which is what lets a pre-vote succeed
    #: (the paper's Fig. 6 uses the same f+1 logic for its sampled series).
    majority_detection_time_ms: float | None = None
    #: Mean of all followers' armed randomizedTimeouts at the failure
    #: instant (the §IV-B1 "mean randomizedTimeout" statistic; the
    #: per-detector value above is min-biased by construction).
    randomized_timeout_cluster_mean_ms: float | None = None

    @property
    def detection_latency_ms(self) -> float | None:
        if self.detection_time_ms is None:
            return None
        return self.detection_time_ms - self.failure_time_ms

    @property
    def majority_detection_latency_ms(self) -> float | None:
        if self.majority_detection_time_ms is None:
            return None
        return self.majority_detection_time_ms - self.failure_time_ms

    @property
    def ots_ms(self) -> float | None:
        if self.new_leader_time_ms is None:
            return None
        return self.new_leader_time_ms - self.failure_time_ms

    @property
    def election_latency_ms(self) -> float | None:
        """Detection → new leader (the §IV-E decomposition)."""
        if self.detection_time_ms is None or self.new_leader_time_ms is None:
            return None
        return self.new_leader_time_ms - self.detection_time_ms

    @property
    def resolved(self) -> bool:
        return self.detection_time_ms is not None and self.new_leader_time_ms is not None


def _read(clock: ClockModel | None, rec: TraceRecord) -> float:
    return rec.time if clock is None else clock.read(rec.node, rec.time)


def _snapshot_mean(snapshots: list[TraceRecord], t: float) -> float | None:
    """Mean follower randomizedTimeout from the snapshot at instant ``t``."""
    best: TraceRecord | None = None
    for rec in snapshots:
        if rec.time > t:
            break
        best = rec
    if best is None:
        return None
    values = list(best.get("values", {}).values())
    return float(sum(values) / len(values)) if values else None


def extract_failure_episodes(
    trace: TraceLog,
    *,
    clock: ClockModel | None = None,
    cluster_size: int | None = None,
) -> list[FailureEpisode]:
    """Pair every induced leader failure with its detection and re-election.

    Detection is the first ``election_timeout`` by any *other* node after
    the failure instant; resolution is the first ``become_leader`` by any
    other node.  Both searches are bounded by the next induced failure so
    episodes never bleed into each other.
    """
    failures = trace.of_kind(LEADER_FAILURE_KIND)
    timeouts = trace.of_kind("election_timeout")
    leaders = trace.of_kind("become_leader")
    snapshots = trace.of_kind("rt_snapshot")
    if cluster_size is None:
        members = {r.node for r in timeouts} | {r.node for r in leaders}
        members |= {r.node for r in failures}
        cluster_size = len(members)
    need = cluster_size // 2 + 1

    episodes: list[FailureEpisode] = []
    for i, failure in enumerate(failures):
        window_end = failures[i + 1].time if i + 1 < len(failures) else math.inf
        detection = next(
            (
                r
                for r in timeouts
                if failure.time <= r.time < window_end and r.node != failure.node
            ),
            None,
        )
        # (f+1)-th distinct detector: walk timeouts until a majority of the
        # cluster (counting the dead leader as "lost") has detected.
        majority_rec: TraceRecord | None = None
        if detection is not None:
            seen: set[str] = {failure.node}
            for r in timeouts:
                if failure.time <= r.time < window_end and r.node != failure.node:
                    seen.add(r.node)
                    if len(seen) >= need:
                        majority_rec = r
                        break
        new_leader = next(
            (
                r
                for r in leaders
                if failure.time <= r.time < window_end and r.node != failure.node
            ),
            None,
        )
        episodes.append(
            FailureEpisode(
                failed_leader=failure.node,
                failure_time_ms=_read(clock, failure),
                detection_time_ms=_read(clock, detection) if detection else None,
                new_leader_time_ms=_read(clock, new_leader) if new_leader else None,
                detector=detection.node if detection else None,
                new_leader=new_leader.node if new_leader else None,
                randomized_timeout_at_detection_ms=(
                    detection.get("randomized_timeout_ms") if detection else None
                ),
                majority_detection_time_ms=(
                    _read(clock, majority_rec) if majority_rec else None
                ),
                randomized_timeout_cluster_mean_ms=_snapshot_mean(
                    snapshots, failure.time
                ),
            )
        )
    return episodes


def leaderless_intervals(
    trace: TraceLog,
    *,
    t_start: float = 0.0,
    t_end: float,
) -> list[tuple[float, float]]:
    """Periods with no acting leader (the Fig. 6 OTS shading).

    The timeline starts leaderless.  ``become_leader`` installs a leader;
    the leadership ends when that node steps down, loses quorum, crashes,
    or is failed by the harness (``fault_leader_pause``).  A *newer*
    ``become_leader`` transfers leadership without a gap (by election
    safety the old leader is already deposed or about to learn it is).

    Intervals are clipped to ``[t_start, t_end]``.
    """
    relevant = trace.of_kinds(
        "become_leader",
        "step_down",
        "quorum_lost",
        "process_crashed",
        LEADER_FAILURE_KIND,
    )
    intervals: list[tuple[float, float]] = []
    leader: str | None = None
    gap_start = t_start
    for rec in relevant:
        if rec.time > t_end:
            break
        if rec.kind == "become_leader":
            if leader is None and rec.time > gap_start:
                intervals.append((gap_start, rec.time))
            leader = rec.node
        elif rec.node == leader:
            leader = None
            gap_start = rec.time if rec.time > t_start else t_start
    if leader is None and t_end > gap_start:
        intervals.append((gap_start, t_end))
    return intervals


def total_interval_length(intervals: list[tuple[float, float]]) -> float:
    """Sum of interval lengths (total OTS over a run)."""
    return float(sum(b - a for a, b in intervals))


def randomized_timeout_matrix(
    trace: TraceLog,
    node_names: list[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Collect the harness sampler's ``rt_sample`` records into arrays.

    Returns:
        ``(times_ms, values)`` where ``values[i, j]`` is node ``j``'s
        randomizedTimeout at sample instant ``i``.  Samples where a node
        was paused carry ``NaN``.
    """
    samples = trace.of_kind("rt_sample")
    by_time: dict[float, dict[str, float]] = {}
    for rec in samples:
        by_time.setdefault(rec.time, {})[rec.node] = rec.get("value", math.nan)
    times = np.array(sorted(by_time), dtype=np.float64)
    values = np.full((len(times), len(node_names)), np.nan)
    index = {n: j for j, n in enumerate(node_names)}
    for i, t in enumerate(times):
        for node, v in by_time[t].items():
            j = index.get(node)
            if j is not None:
                values[i, j] = v
    return times, values


def kth_smallest_series(values: np.ndarray, k: int) -> np.ndarray:
    """Per-row k-th smallest (1-based), ignoring NaNs.

    Fig. 6 plots the ``f+1``-smallest (3rd of 5) randomizedTimeout: the
    value at which a *majority* of servers would have lost sight of the
    leader, which is what gates a successful pre-vote.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    out = np.full(values.shape[0], np.nan)
    for i in range(values.shape[0]):
        row = values[i]
        finite = np.sort(row[~np.isnan(row)])
        if len(finite) >= k:
            out[i] = finite[k - 1]
    return out
