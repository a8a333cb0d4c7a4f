"""Liveness monitoring: is the cluster making the progress it *could*?

Safety says nothing bad happened; :class:`LivenessChecker` is its dual —
the gray-failure scenarios (one-way link blocks, degraded-but-not-dead
egress, skewed clocks) are precisely the faults that leave every safety
invariant intact while the cluster silently stops serving.  The checker
samples the live cluster on the same cadence as
:class:`~repro.scenarios.safety.SafetyChecker` and flags three failure
shapes, each gated on *quorum connectivity* so a genuine partition (where
stalling is the correct behaviour) never false-positives:

* **no-leader window** — no live leader for longer than a bound while
  some running voter could reach a quorum of its voters over mutually
  usable links;
* **election livelock** — term keeps climbing without producing a leader
  while a quorum is connected (the classic disruption mode of a one-way
  isolated node: it can campaign *out* but never hear heartbeats *in*);
* **commit stall** — a leader exists, a quorum is connected, the log has
  uncommitted entries, and the cluster-wide commit watermark does not
  move for longer than a bound (the shape of a gray egress fault: the
  leader looks alive but its appends mostly die on the wire).

Connectivity is taken from :meth:`repro.net.network.Network.connected`,
which counts a direction as usable while its loss rate is below 1.0 — a
degraded-but-possible link still obligates progress (eventual delivery),
which is exactly what makes gray failures *gray* rather than partitions.

Each violation is recorded once per episode (a stalled window flags when
it first exceeds its bound, not once per sample) and also emitted as a
trace record (``liveness_no_leader`` / ``liveness_election_livelock`` /
``liveness_commit_stall``) so experiment reports can overlay the flag on
their measured series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.builder import Cluster
from repro.raft.types import Role
from repro.sim.process import ProcessState

__all__ = ["LivenessChecker", "LivenessViolation"]

_NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class LivenessViolation:
    """One detected liveness failure episode."""

    #: ``"no_leader"`` / ``"election_livelock"`` / ``"commit_stall"``.
    kind: str
    #: Sim time (ms) the episode crossed its bound.
    time: float
    #: Human-readable specifics (window length, term delta, watermark).
    detail: str

    def __str__(self) -> str:
        return f"t={self.time:g}: liveness/{self.kind}: {self.detail}"


#: Sampling cadence (ms).
INTERVAL_MS = 250.0


class LivenessChecker:
    """Periodic liveness sampler for one cluster.

    Args:
        cluster: the wired cluster to observe; sampled every
            ``INTERVAL_MS`` (the safety checker's default cadence).
        leaderless_bound_ms: longest tolerated *single* window without a
            live leader while a quorum is connected.
        leaderless_total_bound_ms: cumulative leaderless-while-connected
            budget over the whole run (catches repeated short outages that
            individually duck under the single-window bound).
        term_churn_bound: tolerated total term growth while a quorum is
            connected but leaderless; exceeding it flags election livelock.
        commit_stall_bound_ms: longest tolerated window in which a leader
            and a connected quorum coexist with uncommitted entries yet
            the commit watermark does not advance.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        leaderless_bound_ms: float = 10_000.0,
        leaderless_total_bound_ms: float = 30_000.0,
        term_churn_bound: int = 20,
        commit_stall_bound_ms: float = 10_000.0,
    ) -> None:
        for label, value in (
            ("leaderless_bound_ms", leaderless_bound_ms),
            ("leaderless_total_bound_ms", leaderless_total_bound_ms),
            ("commit_stall_bound_ms", commit_stall_bound_ms),
        ):
            if value <= 0.0:
                raise ValueError(f"{label} must be > 0, got {value!r}")
        if term_churn_bound <= 0:
            raise ValueError(
                f"term_churn_bound must be > 0, got {term_churn_bound!r}"
            )
        self.cluster = cluster
        self.interval_ms = INTERVAL_MS
        self.leaderless_bound_ms = leaderless_bound_ms
        self.leaderless_total_bound_ms = leaderless_total_bound_ms
        self.term_churn_bound = term_churn_bound
        self.commit_stall_bound_ms = commit_stall_bound_ms
        #: Violations detected so far, in detection order.
        self.violations: list[LivenessViolation] = []
        # -- no-leader tracking ---------------------------------------- #
        self._leaderless_since: float | None = None
        self._leaderless_total = 0.0
        self._window_flagged = False
        self._total_flagged = False
        self._last_sample_t: float | None = None
        # -- election-livelock tracking -------------------------------- #
        self._prev_max_term: int | None = None
        self._churn = 0
        self._churn_flagged = False
        # -- commit-stall tracking ------------------------------------- #
        self._stall_since: float | None = None
        self._stall_watermark = -1
        self._stall_flagged = False
        self._installed = False

    # ------------------------------------------------------------------ #
    # installation / sampling
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Arm the periodic sampler (idempotent)."""
        if self._installed:
            return
        self._installed = True
        self.cluster.loop.every(self.interval_ms, self.sample)

    # ------------------------------------------------------------------ #
    # connectivity
    # ------------------------------------------------------------------ #

    def quorum_connected(self) -> bool:
        """Could *some* running voter assemble a quorum right now?

        True iff a running voter ``v`` exists whose own configuration's
        quorum is reachable: ``v`` itself plus the running voters ``u``
        with ``network.connected(v, u)`` (both directions usable).  Each
        candidate is judged against *its own* membership view — during a
        config change different nodes legitimately hold different voter
        sets, and a node can only win with the quorum it believes in.
        """
        network = self.cluster.network
        nodes = self.cluster.nodes
        running = {
            name
            for name, node in nodes.items()
            if node.state is ProcessState.RUNNING
        }
        for name in running:
            node = nodes[name]
            cfg = node.membership
            if name not in cfg.voters:
                continue
            reachable = 1  # itself
            for peer in cfg.voters:
                if peer == name or peer not in running:
                    continue
                if network.connected(name, peer):
                    reachable += 1
            if reachable >= cfg.quorum:
                return True
        return False

    # ------------------------------------------------------------------ #
    # detectors
    # ------------------------------------------------------------------ #

    def _flag(self, kind: str, detail: str, **fields: object) -> None:
        now = self.cluster.loop.now
        self.violations.append(LivenessViolation(kind, now, detail))
        # The three liveness_* kinds are registered via extra_trace_kinds
        # in tools/repolint/config.py.
        # repolint: disable=trace-dynamic-kind
        self.cluster.trace.record(
            now, "liveness", f"liveness_{kind}", detail=detail, **fields
        )

    def sample(self) -> None:
        """Record one liveness observation (also callable directly)."""
        now = self.cluster.loop.now
        prev_t = self._last_sample_t
        self._last_sample_t = now
        connected = self.quorum_connected()

        nodes = self.cluster.nodes.values()
        leader_alive = any(
            n.state is ProcessState.RUNNING and n.role is Role.LEADER
            for n in nodes
        )
        max_term = max(
            (
                n.current_term
                for n in nodes
                if n.state is ProcessState.RUNNING
            ),
            default=0,
        )

        self._check_no_leader(now, prev_t, connected, leader_alive)
        self._check_livelock(now, connected, leader_alive, max_term)
        self._check_commit_stall(now, connected, leader_alive)

    def _check_no_leader(
        self,
        now: float,
        prev_t: float | None,
        connected: bool,
        leader_alive: bool,
    ) -> None:
        if leader_alive or not connected:
            # A leader, or a genuine loss of quorum connectivity, ends the
            # episode — a cluster that *cannot* elect is allowed to idle.
            self._leaderless_since = None
            self._window_flagged = False
            return
        if self._leaderless_since is None:
            self._leaderless_since = prev_t if prev_t is not None else now
        window = now - self._leaderless_since
        # The cumulative budget accrues per observed leaderless interval,
        # so repeated short outages add up even though each window resets.
        if prev_t is not None:
            self._leaderless_total += now - max(prev_t, self._leaderless_since)
        if window > self.leaderless_bound_ms and not self._window_flagged:
            self._window_flagged = True
            self._flag(
                "no_leader",
                f"no live leader for {window:g} ms "
                f"(bound {self.leaderless_bound_ms:g}) with a quorum connected",
                window_ms=window,
            )
        if (
            self._leaderless_total > self.leaderless_total_bound_ms
            and not self._total_flagged
        ):
            self._total_flagged = True
            self._flag(
                "no_leader",
                f"cumulative leaderless-while-connected time "
                f"{self._leaderless_total:g} ms exceeds budget "
                f"{self.leaderless_total_bound_ms:g}",
                total_ms=self._leaderless_total,
            )

    def _check_livelock(
        self, now: float, connected: bool, leader_alive: bool, max_term: int
    ) -> None:
        prev = self._prev_max_term
        self._prev_max_term = max_term
        if leader_alive:
            # A winner resets the churn account: terms spent *reaching* a
            # leader were productive, not livelock.
            self._churn = 0
            self._churn_flagged = False
            return
        if not connected or prev is None:
            return
        if max_term > prev:
            self._churn += max_term - prev
        if self._churn > self.term_churn_bound and not self._churn_flagged:
            self._churn_flagged = True
            self._flag(
                "election_livelock",
                f"term climbed by {self._churn} without electing a leader "
                f"(bound {self.term_churn_bound}) while a quorum is connected",
                term_delta=self._churn,
                term=max_term,
            )

    def _check_commit_stall(
        self, now: float, connected: bool, leader_alive: bool
    ) -> None:
        running = [
            n
            for n in self.cluster.nodes.values()
            if n.state is ProcessState.RUNNING
        ]
        watermark = max((n.commit_index for n in running), default=0)
        pending = any(n.log.last_index > watermark for n in running)
        if (
            not leader_alive
            or not connected
            or not pending
            or watermark > self._stall_watermark
        ):
            # Progress (or a state in which stalling is legitimate) closes
            # the episode and re-anchors the watermark.
            self._stall_watermark = max(watermark, self._stall_watermark)
            self._stall_since = None
            self._stall_flagged = False
            return
        if self._stall_since is None:
            self._stall_since = now
            return
        window = now - self._stall_since
        if window > self.commit_stall_bound_ms and not self._stall_flagged:
            self._stall_flagged = True
            self._flag(
                "commit_stall",
                f"commit watermark stuck at {watermark} for {window:g} ms "
                f"(bound {self.commit_stall_bound_ms:g}) with a leader and "
                f"a quorum connected",
                window_ms=window,
                commit_index=watermark,
            )

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #

    def verify(self) -> list[str]:
        """All liveness violations over the run, as display strings."""
        self.sample()  # capture the final state too
        return [str(v) for v in self.violations]

    def assert_live(self) -> None:
        """Raise ``AssertionError`` listing every liveness violation."""
        problems = self.verify()
        assert not problems, "liveness violations:\n  " + "\n  ".join(problems)
