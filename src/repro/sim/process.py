"""Actor base class for simulated components.

A :class:`Process` is a component with an identity that receives messages
and owns timers.  :class:`~repro.raft.node.RaftNode` is the one subclass;
clients and fault injectors are plain objects that schedule on the loop.
The base class supplies

* a :class:`~repro.sim.timers.TimerService`,
* pause/resume plumbing (the "container sleep" fault of §IV-B1), and
* a liveness gate — messages delivered to a paused or crashed process are
  dropped by the caller after checking :attr:`alive`.

Subclasses implement :meth:`on_message` (``RaftNode`` overrides
:meth:`deliver` itself, to dispatch on the payload type).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.sim.events import PRIORITY_CONTROL
from repro.sim.loop import EventLoop, SimulationError
from repro.sim.timers import TimerService
from repro.sim.tracing import TraceLog

__all__ = ["Process", "ProcessState"]


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    RUNNING = "running"
    PAUSED = "paused"  # container sleep: state retained, nothing executes
    CRASHED = "crashed"  # crash fault: volatile state lost on recovery
    STOPPED = "stopped"  # decommissioned (removed from the cluster): terminal


class Process:
    """Base class for all message-driven simulated components."""

    def __init__(self, loop: EventLoop, name: str, trace: TraceLog | None = None) -> None:
        self.loop = loop
        self.name = name
        self.trace = trace if trace is not None else TraceLog()
        self.timers = TimerService(loop, name)
        self._state = ProcessState.RUNNING
        #: Bumped by every :meth:`pause_for`; its resume timer acts only
        #: while it still holds the latest value.
        self._pause_generation = 0
        #: Bumped by every injected crash (``cluster.faults.crash``); an
        #: auto-recovery timer acts only while it still holds the latest value.
        self._crash_generation = 0

    # -- liveness -------------------------------------------------------- #

    @property
    def state(self) -> ProcessState:
        return self._state

    @property
    def alive(self) -> bool:
        """True when the process executes callbacks and accepts messages."""
        return self._state is ProcessState.RUNNING

    def pause(self) -> None:
        """Suspend the process (``docker pause`` equivalent).

        Timers freeze with their remaining durations; in-flight messages
        addressed to this process are dropped on arrival (a paused container
        cannot ack TCP segments either — from the cluster's point of view it
        is silent).
        """
        if self._state is not ProcessState.RUNNING:
            raise SimulationError(f"cannot pause {self.name!r} in state {self._state}")
        self.timers.freeze()
        self._state = ProcessState.PAUSED
        self.trace.record(self.loop.now, self.name, "process_paused")

    def pause_for(self, duration_ms: float) -> None:
        """:meth:`pause` now, resume after ``duration_ms`` — unless the
        process was resumed and ``pause_for``-ed *again* meanwhile: only
        the latest timed pause's resume applies (a bare ``PAUSED`` check
        would let a stale timer cut the later pause short).  Scenario
        sleeps, injected stalls and fsync stalls all share this counter."""
        self.pause()
        self._pause_generation = token = self._pause_generation + 1

        def _resume() -> None:
            if self._state is ProcessState.PAUSED and self._pause_generation == token:
                self.resume()

        self.loop.schedule(duration_ms, _resume, priority=PRIORITY_CONTROL)

    def resume(self) -> None:
        """Resume a paused process; frozen timers continue where they left off."""
        if self._state is not ProcessState.PAUSED:
            raise SimulationError(f"cannot resume {self.name!r} in state {self._state}")
        self._state = ProcessState.RUNNING
        self.timers.thaw()
        self.trace.record(self.loop.now, self.name, "process_resumed")

    def crash(self) -> None:
        """Crash the process: all timers disarm, volatile state is the
        subclass's responsibility to reset in :meth:`on_recover`.

        A no-op on a STOPPED process — decommissioning is terminal, and a
        fault timeline that still names a removed node must not drag it
        back into a recoverable state."""
        if self._state in (ProcessState.CRASHED, ProcessState.STOPPED):
            return
        self.timers.cancel_all()
        self._state = ProcessState.CRASHED
        self.trace.record(self.loop.now, self.name, "process_crashed")

    def recover(self) -> None:
        """Restart after a crash.  Calls :meth:`on_recover`."""
        if self._state is not ProcessState.CRASHED:
            raise SimulationError(f"cannot recover {self.name!r} in state {self._state}")
        self._state = ProcessState.RUNNING
        self.trace.record(self.loop.now, self.name, "process_recovered")
        self.on_recover()

    def stop(self) -> None:
        """Decommission the process — the terminal state of a node removed
        from the cluster.

        Unlike :meth:`pause`/:meth:`crash` this is valid from *any* state
        (a node may be removed while crashed or paused) and is never
        reversed.  All timers are cancelled, so callbacks already queued
        fire as no-ops, and the ``deliver`` liveness gate drops every
        in-flight message still addressed here — a removed node cannot be
        resurrected by stale traffic or a stale timer.  Idempotent.
        """
        if self._state is ProcessState.STOPPED:
            return
        self.timers.cancel_all()
        self._state = ProcessState.STOPPED
        self.trace.record(self.loop.now, self.name, "process_stopped")

    # -- messaging ------------------------------------------------------- #

    def deliver(self, sender: str, payload: Any) -> None:
        """Entry point used by the network fabric.

        Silently drops the message if the process is not running — a slept
        or crashed server neither processes nor buffers traffic.
        """
        if self._state is not ProcessState.RUNNING:
            return
        self.on_message(sender, payload)

    # -- subclass hooks --------------------------------------------------- #

    def on_message(self, sender: str, payload: Any) -> None:
        """Handle an incoming message.  Subclasses must override."""
        raise NotImplementedError

    def on_recover(self) -> None:
        """Re-initialise volatile state after a crash.  Optional."""
