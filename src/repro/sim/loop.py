"""The discrete-event loop.

A single :class:`EventLoop` drives an entire simulated cluster: network
deliveries, Raft timers, fault injections and workload arrivals are all
events in one heap, executed in a deterministic total order (see
:mod:`repro.sim.events`).

Performance notes (this is the hot path of every benchmark):

* heap entries are the :class:`~repro.sim.events.Event` objects
  themselves — ``list`` subclasses laid out ``[time, priority, seq,
  callback]`` — so one allocation covers record, heap entry and handle.
  CPython compares lists element-wise in C, and because ``seq`` is unique
  the comparison never reaches the trailing callback: a sift costs zero
  Python-level calls and zero allocations, where comparing events via
  ``__lt__`` used to allocate two key tuples per comparison;
* the heap is the *only* pending structure, inside a run and outside it:
  ``run``/``run_until`` are one pop loop over it.  The traffic here is
  heartbeat and timer chains — each event schedules its successor during
  the run — so nearly every event is pushed and popped mid-run, and a
  sorted snapshot of what is pending at entry would serve 0.3–2.5 % of the
  events of the benchmark workloads.
  ``run``/``run_until``/``step`` are not reentrant from callbacks;
* virtual time is the plain attribute :attr:`EventLoop.now` (read-only by
  convention) — the hottest read in the simulator, not worth a property;
* cancelled events use *lazy deletion*: cancelling clears the callback
  slot in O(1) and the loop skips dead events as they surface.  Raft
  cancels timers on role changes and clients cancel retry timers on every
  response, so eager heap surgery would turn each cancel into O(n).  A
  dead event stays in the heap until its time comes; the timers below
  keep the number of such corpses small, so the heap is never rebuilt.

Timers add one more trick on top: :class:`~repro.sim.timers.Timer` re-arms
lazily, so the per-heartbeat election-timer reset — the single most frequent
operation in a Raft simulation — does not touch the heap at all.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable

from repro.sim.events import Event, PRIORITY_CONTROL, PRIORITY_MESSAGE

__all__ = ["EventLoop", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduler-level misuse (negative delays, exhausted loop)."""


_INF = float("inf")


class EventLoop:
    """Deterministic discrete-event scheduler with a virtual clock.

    Attributes:
        now: current virtual time (ms), starting at 0.  Public for reading;
            only the loop itself advances it.

    Example:
        >>> loop = EventLoop()
        >>> fired = []
        >>> _ = loop.schedule(5.0, lambda: fired.append(loop.now))
        >>> loop.run()
        >>> fired
        [5.0]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[Event] = []
        self._seq = 0
        self._executed = 0
        self._in_run = False

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def executed(self) -> int:
        """Total number of events executed so far."""
        return self._executed

    def next_event_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the heap is drained."""
        heap = self._heap
        while heap and heap[0][3] is None:
            _heappop(heap)
        return heap[0][0] if heap else None  # Event[0] is time

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_MESSAGE,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ms from now.

        Returns the :class:`Event`, which doubles as the cancellation
        handle (``.cancel()`` / ``.cancelled`` / ``.time``).

        Args:
            delay: non-negative delay in ms.  A zero delay fires "later this
                instant" — after all events already queued for the current
                time with smaller sequence numbers.
            callback: zero-argument callable.
            priority: tie-break priority (see :mod:`repro.sim.events`).

        Raises:
            SimulationError: if ``delay`` is negative or not finite.
        """
        if not (0.0 <= delay < _INF):  # also rejects NaN
            raise SimulationError(f"delay must be >= 0 and finite, got {delay!r}")
        # Inline copy of _push_event: this is the hottest entry point and a
        # delegating call would cost ~100ns per scheduled event.  Pinned by
        # tests/sim/test_loop.py::test_schedule_matches_push_event_on_a_twin_loop
        # (Network.transmit holds a third copy, for deliveries).
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        # Append-built: ~30ns faster than Event((...)) and avoids the
        # ephemeral argument tuple (one less GC-tracked alloc per event).
        event = Event()
        event.append(time)
        event.append(priority)
        event.append(seq)
        event.append(callback)
        _heappush(self._heap, event)
        return event

    def _push_event(
        self, time: float, callback: Callable[[], Any], priority: int
    ) -> Event:
        """Validation-free :meth:`schedule_at` for trusted internal callers.

        ``time`` must be a float ``>= now`` — timers re-arm at logical
        deadlines and the network schedules ``now + clamped-delay``, both
        of which hold by construction.
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event()
        event.append(time)
        event.append(priority)
        event.append(seq)
        event.append(callback)
        _heappush(self._heap, event)
        return event

    def _reserve_seq(self) -> int:
        """Take the next insertion number now, for :meth:`_push_reserved`
        later: a lazily armed deadline keeps the place in the event order
        an eager ``schedule`` at this moment would have had."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def _push_reserved(
        self, time: float, priority: int, seq: int, callback: Callable[[], Any]
    ) -> Event:
        """:meth:`_push_event` under a sequence number from :meth:`_reserve_seq`."""
        event = Event((time, priority, seq, callback))
        _heappush(self._heap, event)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_MESSAGE,
    ) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time`` (ms)."""
        if not (self.now <= time < _INF):  # also rejects NaN
            raise SimulationError(
                f"cannot schedule in the past or at infinity: now={self.now!r}, "
                f"t={time!r}"
            )
        return self._push_event(float(time), callback, priority)

    def every(self, interval_ms: float, fn: Callable[[], Any]) -> None:
        """Call ``fn`` every ``interval_ms`` from now on, at
        ``PRIORITY_CONTROL``: the periodic observer (samplers, checkers).

        The first call is armed here; each call re-arms the next after
        ``fn`` returns.  The chain never ends — ``run_until`` bounds it.
        """
        if not (0.0 < interval_ms < _INF):
            raise SimulationError(
                f"interval must be > 0 ms and finite, got {interval_ms!r}"
            )

        def tick() -> None:
            fn()
            self.schedule(interval_ms, tick, priority=PRIORITY_CONTROL)

        self.schedule(interval_ms, tick, priority=PRIORITY_CONTROL)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Execute the single next live event.

        Returns:
            ``True`` if an event was executed, ``False`` if the heap is empty.
        """
        if self._in_run:
            raise SimulationError("step() is not reentrant from a running loop")
        heap = self._heap
        while heap:
            event = _heappop(heap)
            cb = event[3]
            if cb is None:
                continue
            self.now = event[0]
            self._executed += 1
            cb()
            return True
        return False

    def run(self, *, max_events: int | None = None) -> int:
        """Run until the pending set drains (or ``max_events`` executed).

        Returns:
            Number of events executed by this call.

        Raises:
            SimulationError: if executing would exceed ``max_events`` — i.e.
                ``max_events`` events have run and live events remain.  A
                guard against accidental infinite simulations (e.g.
                heartbeat loops with no stop condition).  Exactly
                ``max_events`` events with nothing left over is *not* an
                error; :meth:`run_until` uses the same boundary.
        """
        return self._drain(None, max_events)

    def run_until(self, t: float, *, max_events: int | None = None) -> int:
        """Run all events with ``time <= t``, then advance the clock to ``t``.

        Periodic processes (heartbeat loops, workload generators) keep the
        pending set non-empty forever; ``run_until`` is the normal way to
        execute an experiment for a fixed virtual duration.

        Returns:
            Number of events executed by this call.

        Raises:
            SimulationError: if executing would exceed ``max_events`` — same
                boundary semantics as :meth:`run`: exactly ``max_events``
                events within the bound is fine, one more live event due at
                or before ``t`` raises.
        """
        if not (self.now <= t < _INF):  # also rejects NaN
            raise SimulationError(
                f"run_until target {t!r} is in the past or not finite "
                f"(now={self.now!r})"
            )
        count = self._drain(t, max_events)
        self.now = float(t)  # keep the clock a float even for int targets
        return count

    def _drain(self, t: float | None, max_events: int | None) -> int:
        """Shared core of :meth:`run` / :meth:`run_until`: pop the heap in
        order until it drains, the next live event is past ``t``, or
        ``max_events`` have run with a live event still due."""
        if self._in_run:
            raise SimulationError("run()/run_until() are not reentrant")
        heap = self._heap
        pop = _heappop
        # An absent bound is one no event reaches, so the loop body tests
        # two plain comparisons rather than two ``is None`` first.
        horizon = _INF if t is None else t
        limit = _INF if max_events is None else max_events
        count = 0
        self._in_run = True
        try:
            while heap:
                ev = heap[0]
                cb = ev[3]
                if cb is None:  # cancelled: skip without executing
                    pop(heap)
                    continue
                time = ev[0]
                if time > horizon:
                    break
                if count >= limit:
                    if t is not None:
                        raise SimulationError(
                            f"run_until({t!r}) exceeded max_events={max_events}"
                        )
                    raise SimulationError(
                        f"run() exceeded max_events={max_events} with live "
                        f"events pending at t={self.now}"
                    )
                pop(heap)
                self.now = time
                count += 1
                cb()
        finally:
            self._in_run = False
            self._executed += count
        return count
