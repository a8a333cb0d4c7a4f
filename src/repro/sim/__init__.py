"""Deterministic discrete-event simulation substrate.

This package is the foundation every other ``repro`` subsystem runs on.  It
provides:

* :class:`~repro.sim.loop.EventLoop` — a heapq-based scheduler with a total,
  deterministic event order (time, priority, sequence number); its ``now``
  is the simulation clock, in floating-point **milliseconds**;
* :class:`~repro.sim.clock.NodeClock` — one node's local view of that
  time (offset and drift, identity by default);
* :class:`~repro.sim.timers.Timer` / :class:`~repro.sim.timers.TimerService`
  — resettable timers in the style Raft nodes need (election timers,
  per-follower heartbeat timers), and :class:`~repro.sim.timers.DeadlineQueue`
  — a client's many same-length request timeouts behind one event;
* :mod:`~repro.sim.rng` — named, reproducible random streams so that
  component randomness (link jitter, election randomization, workload
  arrivals) is independent and stable across runs;
* :class:`~repro.sim.process.Process` — the actor base class used by Raft
  nodes, transports, clients and fault injectors;
* :class:`~repro.sim.tracing.TraceLog` — the structured substitute for the
  server log files the paper extracts detection/OTS times from.

The paper's experiments ran on a single physical machine precisely so that a
single hardware clock timestamps every server's log (§IV-A).  A virtual clock
is the limit of that design: all nodes share one exact clock, so detection
and out-of-service intervals are measured with zero error.  (The geo
experiment of Fig. 8 deliberately re-introduces per-node clock offsets at
measurement-extraction time; see :mod:`repro.net.topology`.  Live per-node
skew/drift *inside* the protocol is the ``NodeClock``.)
"""

from repro.sim.clock import NodeClock
from repro.sim.events import Event
from repro.sim.loop import EventLoop, SimulationError
from repro.sim.process import Process
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.timers import DeadlineQueue, Timer, TimerService
from repro.sim.tracing import TraceLog, TraceRecord

__all__ = [
    "DeadlineQueue",
    "Event",
    "EventLoop",
    "NodeClock",
    "Process",
    "RngRegistry",
    "SimulationError",
    "Timer",
    "TimerService",
    "TraceLog",
    "TraceRecord",
    "derive_seed",
]
