"""Fault injection: container sleep, crash, and operational stalls.

Three fault shapes cover the paper's evaluation:

* :func:`pause_for` — "putting the container to sleep" (§IV-B1): the node
  keeps all state but executes nothing and drops traffic until resumed.
* :func:`crash` / :func:`recover_node` — crash-recovery (§III-A): volatile
  state is lost; term, vote and log survive.
* :class:`StallInjector` — short correlated processing stalls (GC,
  scheduler preemption, CPU contention on the shared host).  The paper's
  testbed runs dozens of containers on one machine under a traffic-shaping
  script; this is the operational noise that makes a 100 ms election
  timeout (Raft-Low) fragile in practice while leaving Et = 1000 ms Raft
  untouched (Fig. 6a's narrative).  Stall durations are lognormal with a
  hard cap well below the default election timeout.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.raft.node import RaftNode
from repro.sim.events import PRIORITY_CONTROL
from repro.sim.loop import EventLoop
from repro.sim.process import ProcessState
from repro.sim.tracing import TraceLog

__all__ = ["pause_for", "crash", "recover_node", "StallProfile", "StallInjector"]


def pause_for(
    loop: EventLoop,
    node: RaftNode,
    duration_ms: float,
    *,
    kind: str = "fault_pause",
) -> None:
    """Sleep ``node`` for ``duration_ms`` (the §IV-B1 leader-failure shape).

    Emits ``kind`` at pause time — the failure timestamp the measurement
    layer keys on — and resumes the node afterwards (generation-guarded:
    see :meth:`~repro.sim.process.Process.pause_for`).
    """
    if duration_ms <= 0:
        raise ValueError(f"duration must be > 0 ms, got {duration_ms!r}")
    # The kind is scenario-configurable by design; every value reaching it
    # is registered via extra_trace_kinds in tools/repolint/config.py.
    node.trace.record(loop.now, node.name, kind, duration_ms=duration_ms)  # repolint: disable=trace-dynamic-kind
    node.pause_for(duration_ms)


def crash(node: RaftNode) -> None:
    """Crash ``node`` (volatile state will be lost on recovery).

    Bumps the node's crash generation so any auto-recovery timer armed for
    an *earlier* crash (e.g. by a Churn scenario step) recognises itself as
    stale and leaves this crash's downtime intact.
    """
    node.trace.record(node.loop.now, node.name, "fault_crash")
    node._crash_generation += 1
    node.crash()


def recover_node(node: RaftNode) -> None:
    """Restart a crashed node."""
    node.trace.record(node.loop.now, node.name, "fault_recover")
    node.recover()


@dataclasses.dataclass(slots=True, frozen=True)
class StallProfile:
    """Distribution of operational stalls for one node.

    Attributes:
        mean_interval_ms: mean of the exponential inter-stall gap.
        duration_median_ms: median stall length (lognormal).
        duration_sigma: lognormal shape parameter.  The default heavy-ish
            tail (σ = 0.85) puts a few 400–700 ms stalls into a half-hour
            run — the events that break a 100 ms election timeout
            (Raft-Low) while staying harmless for Et = 1000 ms.
        max_duration_ms: hard cap; keeps stalls well under the default
            1000 ms election timeout so baseline Raft never false-detects,
            matching the paper's Fig. 6a (Raft flat, Raft-Low thrashing).
    """

    mean_interval_ms: float = 40_000.0
    duration_median_ms: float = 120.0
    duration_sigma: float = 0.85
    max_duration_ms: float = 700.0

    def __post_init__(self) -> None:
        if self.mean_interval_ms <= 0:
            raise ValueError("mean_interval_ms must be > 0")
        if self.duration_median_ms <= 0:
            raise ValueError("duration_median_ms must be > 0")
        if self.duration_sigma < 0:
            raise ValueError("duration_sigma must be >= 0")
        if self.max_duration_ms < self.duration_median_ms:
            raise ValueError("max_duration_ms must be >= duration_median_ms")


class StallInjector:
    """Poisson-process stalls on a set of nodes.

    Each node gets an independent stream derived from the experiment seed,
    so enabling stalls on one node never shifts another's schedule.
    """

    def __init__(
        self,
        loop: EventLoop,
        nodes: list[RaftNode],
        profile: StallProfile,
        rng_factory,
        *,
        trace: TraceLog | None = None,
    ) -> None:
        self.loop = loop
        self.profile = profile
        self.trace = trace
        self.stall_count = 0
        self._nodes = list(nodes)
        self._rngs: dict[str, np.random.Generator] = {
            n.name: rng_factory(f"stall/{n.name}") for n in nodes
        }

    def install(self) -> None:
        """Arm the first stall for every node."""
        for node in self._nodes:
            self._schedule_next(node)

    def _schedule_next(self, node: RaftNode) -> None:
        rng = self._rngs[node.name]
        gap = float(rng.exponential(self.profile.mean_interval_ms))
        self.loop.schedule(
            gap, lambda n=node: self._fire(n), priority=PRIORITY_CONTROL
        )

    def _fire(self, node: RaftNode) -> None:
        rng = self._rngs[node.name]
        if node.state is ProcessState.RUNNING:
            duration = float(
                np.exp(rng.normal(np.log(self.profile.duration_median_ms), self.profile.duration_sigma))
            )
            duration = min(duration, self.profile.max_duration_ms)
            self.stall_count += 1
            if self.trace is not None:
                self.trace.record(
                    self.loop.now, node.name, "stall", duration_ms=duration
                )
            pause_for(self.loop, node, duration, kind="stall_pause")
        # If the node is paused/crashed by another injector, skip this one.
        self._schedule_next(node)
