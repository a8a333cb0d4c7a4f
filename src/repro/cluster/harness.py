"""Scenario driver: repeated leader kills, samplers, stabilisation.

:class:`ClusterHarness` scripts the experiment loops of §IV:

* ``run_leader_failure_loop`` — the §IV-B1 / §IV-D protocol: stabilise,
  put the leader's container to sleep, wait for re-election, wake it,
  repeat N times;
* ``install_randomized_timeout_sampler`` — the Fig. 6 per-second probe of
  every node's randomizedTimeout;
* ``install_rtt_probe`` — records the schedule's ground-truth RTT next to
  the samples so figures can overlay them.
"""

from __future__ import annotations

from repro.cluster.builder import Cluster
from repro.cluster.faults import pause_for
from repro.cluster.measurements import LEADER_FAILURE_KIND
from repro.sim.clock import SECOND

__all__ = ["ClusterHarness"]

#: How long :meth:`ClusterHarness.kill_leader_once` waits for a leader to
#: kill, and then for its successor, before calling the run broken.
ELECTION_GUARD_MS = 120_000.0


class ClusterHarness:
    """Drives one cluster through scripted fault/measurement scenarios."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.loop = cluster.loop
        self.trace = cluster.trace
        self.failures_injected = 0

    # ------------------------------------------------------------------ #
    # samplers
    # ------------------------------------------------------------------ #

    def install_randomized_timeout_sampler(self, *, interval_ms: float = SECOND) -> None:
        """Record every node's current randomizedTimeout each interval.

        Paused nodes are skipped (their timers are frozen; the paper's
        probe also reads only live servers).
        """

        def _tick() -> None:
            now = self.loop.now
            for node in self.cluster.nodes.values():
                if node.alive:
                    self.trace.record(
                        now,
                        node.name,
                        "rt_sample",
                        value=node.current_randomized_timeout_ms,
                        role=node.role.value,
                    )

        self.loop.every(interval_ms, _tick)

    def install_rtt_probe(self, *, interval_ms: float = SECOND) -> None:
        """Record the current nominal RTT of an arbitrary pair each interval."""
        links = self.cluster.network.links()
        if not links:
            return
        probe_link = links[0]

        def _tick() -> None:
            self.trace.record(
                self.loop.now, "net", "rtt_probe", rtt_ms=probe_link.rtt_ms
            )

        self.loop.every(interval_ms, _tick)

    # ------------------------------------------------------------------ #
    # failure loops
    # ------------------------------------------------------------------ #

    def kill_leader_once(
        self,
        *,
        sleep_ms: float,
    ) -> str:
        """Pause the current leader and wait for a successor.

        Returns:
            The new leader's name.

        Raises:
            TimeoutError: if no leader exists to kill or no successor
                emerges — either means the experiment is broken and should
                fail loudly rather than record garbage.
        """
        leader = self.cluster.run_until_leader(timeout_ms=ELECTION_GUARD_MS)
        node = self.cluster.node(leader)
        # Snapshot every follower's armed randomizedTimeout at the failure
        # instant — the quantity §IV-B1 reports as "the mean
        # randomizedTimeout at the time of failure detection".
        self.trace.record(
            self.loop.now,
            "harness",
            "rt_snapshot",
            values={
                n.name: n.current_randomized_timeout_ms
                for n in self.cluster.nodes.values()
                if n.alive and n.name != leader
            },
        )
        pause_for(self.loop, node, sleep_ms, kind=LEADER_FAILURE_KIND)
        self.failures_injected += 1
        return self.cluster.run_until_leader(
            timeout_ms=ELECTION_GUARD_MS, exclude=leader
        )

    def run_leader_failure_loop(
        self,
        n_failures: int,
        *,
        warmup_ms: float = 8_000.0,
        sleep_ms: float = 6_000.0,
        settle_ms: float = 8_000.0,
    ) -> None:
        """The §IV-B1 protocol: ``n_failures`` leader kills.

        Args:
            warmup_ms: initial run time before the first kill — long enough
                for the first election *and* for Dynatune to collect
                ``minListSize`` samples and tune (≈ 1 s at the default
                100 ms heartbeat interval, §IV-A).
            sleep_ms: how long the failed leader stays asleep.  Must exceed
                the worst-case re-election so the old leader never votes.
            settle_ms: run time after each re-election before the next
                kill, so the new regime re-measures and re-tunes.
        """
        if n_failures < 1:
            raise ValueError(f"n_failures must be >= 1, got {n_failures!r}")
        self.cluster.run_for(warmup_ms)
        for _ in range(n_failures):
            self.kill_leader_once(sleep_ms=sleep_ms)
            self.cluster.run_for(settle_ms)
