"""Fault injection: container sleep and crash-recovery.

Two fault shapes cover the paper's evaluation:

* :func:`pause_for` — "putting the container to sleep" (§IV-B1): the node
  keeps all state but executes nothing and drops traffic until resumed.
* :func:`crash` / :func:`recover_node` — crash-recovery (§III-A): volatile
  state is lost; term, vote and log survive.
"""

from __future__ import annotations

from repro.raft.node import RaftNode
from repro.sim.loop import EventLoop

__all__ = ["pause_for", "crash", "recover_node"]


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
