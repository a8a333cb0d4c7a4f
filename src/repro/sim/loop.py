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
* ``run``/``run_until`` drain a *sorted batch*: everything pending at
  entry is snapshotted and Timsort-ed once (C, and adaptively fast on the
  mostly-ordered heap array), then consumed by index; only events
  scheduled *during* the run go through the live heap, which stays small.
  This replaces one O(log n) sift-down per pre-existing event with an
  amortised share of one ``sort()`` — several times cheaper in constants.
  ``run``/``run_until``/``step`` are therefore not reentrant from
  callbacks (they never were used that way; now it raises);
* virtual time is the plain attribute :attr:`EventLoop.now` (read-only by
  convention) — the hottest read in the simulator, not worth a property;
* cancelled events use *lazy deletion*: cancelling clears the callback
  slot in O(1) and the loop skips dead events as they surface.  Raft
  cancels timers on role changes and clients cancel retry timers on every
  response, so eager heap surgery would turn each cancel into O(n);
* the loop keeps an (approximate, over-counting) tally of cancelled
  events still buried in its structures and *compacts* the live heap
  (filter + re-heapify, O(n)) once the tally exceeds half the heap beyond
  a small floor; batch remainders are filtered on merge-back.
  Cancellation storms therefore cannot grow the pending set unboundedly:
  amortised cost per cancel stays O(log n).

Timers add one more trick on top: :class:`~repro.sim.timers.Timer` re-arms
lazily, so the per-heartbeat election-timer reset — the single most frequent
operation in a Raft simulation — does not touch the heap at all.
"""

from __future__ import annotations

import heapq
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable

from repro.sim.clock import VirtualClock
from repro.sim.events import Event, PRIORITY_MESSAGE

__all__ = ["EventLoop", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduler-level misuse (negative delays, exhausted loop)."""


#: Never compact heaps smaller than this — rebuild cost would dominate.
_COMPACT_MIN_SIZE = 64


class _ClockView(VirtualClock):
    """Live, read-only :class:`VirtualClock` facade over a loop's time."""

    __slots__ = ("_loop",)

    def __init__(self, loop: "EventLoop") -> None:
        VirtualClock.__init__(self)
        self._loop = loop

    @property
    def now(self) -> float:
        return self._loop.now


class EventLoop:
    """Deterministic discrete-event scheduler with a virtual clock.

    Args:
        start: initial virtual time (ms).

    Attributes:
        now: current virtual time (ms).  Public for reading; only the loop
            itself advances it.

    Example:
        >>> loop = EventLoop()
        >>> fired = []
        >>> _ = loop.schedule(5.0, lambda: fired.append(loop.now))
        >>> loop.run()
        >>> fired
        [5.0]
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ValueError(f"clock cannot start before zero, got {start!r}")
        self.now: float = float(start)
        self._heap: list[Event] = []
        #: When True, ``_heap`` is an unordered bag: bursts of schedules
        #: outside a run are plain appends, and ordering is established
        #: lazily (one heapify/sort) the first time something needs it.
        self._unordered = True
        self._seq = 0
        self._executed = 0
        self._in_run = False
        #: Approximate count of cancelled events still pending (may
        #: over-count events cancelled after firing or parked in a run
        #: batch; only drives the compaction heuristic).
        self._cancelled = 0
        self._clock_view = _ClockView(self)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def clock(self) -> VirtualClock:
        """Read-only live view of the loop's time (legacy API).

        The returned object's ``now`` always reflects the loop, so it is
        safe to hold across events; mutating it has no effect on the loop.
        """
        return self._clock_view

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones).

        During :meth:`run`/:meth:`run_until` this reflects only events
        scheduled since the run started — the pre-existing ones live in
        the run's private batch until it exits.
        """
        return len(self._heap)

    @property
    def executed(self) -> int:
        """Total number of events executed so far."""
        return self._executed

    def next_event_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the heap is drained.

        Raises:
            SimulationError: if called from a callback during ``run``/
                ``run_until`` — pre-existing events are parked in the run's
                private batch then, so the answer would be silently wrong.
        """
        if self._in_run:
            raise SimulationError(
                "next_event_time() is unavailable from inside run()/run_until()"
            )
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None  # Event[0] is time

    def _ensure_ordered(self) -> None:
        if self._unordered:
            heapq.heapify(self._heap)
            self._unordered = False

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
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"delay must be >= 0 and finite, got {delay!r}")
        # Inline copy of _push_event: this is the hottest entry point and a
        # delegating call would cost ~100ns per scheduled event.  Keep the
        # bodies in sync (Network.transmit holds a third, for deliveries).
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
        event.loop = self
        if self._unordered:
            self._heap.append(event)
        else:
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
        event.loop = self
        if self._unordered:
            self._heap.append(event)
        else:
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
        event.loop = self
        if self._unordered:
            self._heap.append(event)
        else:
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
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: now={self.now!r}, t={time!r}"
            )
        return self._push_event(float(time), callback, priority)

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
        self._ensure_ordered()
        heap = self._heap
        while heap:
            event = _heappop(heap)
            cb = event[3]
            if cb is None:
                self._cancelled -= 1
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
        if t < self.now:
            raise SimulationError(
                f"run_until target {t!r} is in the past (now={self.now!r})"
            )
        count = self._drain(t, max_events)
        self.now = float(t)  # keep the clock a float even for int targets
        return count

    def _drain(self, t: float | None, max_events: int | None) -> int:
        """Shared core of :meth:`run` / :meth:`run_until`.

        Snapshots the pending heap into a sorted batch consumed by index;
        events scheduled by callbacks flow through the (now small) live
        heap and are merged into the execution order by peek-compare.  The
        unconsumed batch tail is merged back into the heap on exit, so
        between runs the heap is the single pending structure again.
        """
        if self._in_run:
            raise SimulationError("run()/run_until() are not reentrant")
        heap = self._heap
        batch = heap[:]
        heap.clear()
        self._unordered = False  # in-run schedules must keep heap order
        batch.sort()
        i = 0
        n = len(batch)
        count = 0
        pop = _heappop
        simple = t is None and max_events is None
        self._in_run = True
        try:
            while True:
                if simple and not heap:
                    # Fast path: no bounds to check and nothing in the live
                    # heap — march straight down the sorted batch until a
                    # callback schedules something or the batch drains.
                    while i < n:
                        ev = batch[i]
                        i += 1
                        cb = ev[3]
                        if cb is None:
                            continue
                        self.now = ev[0]
                        count += 1
                        cb()
                        if heap:
                            break
                    if i >= n and not heap:
                        break
                    continue
                if t is not None and max_events is None and i >= n:
                    # Steady-state fast path for run_until: the batch is
                    # exhausted, so everything flows through the live heap
                    # until it drains or the next event is beyond t.
                    while heap:
                        ev = heap[0]
                        cb = ev[3]
                        if cb is None:
                            pop(heap)
                            self._cancelled -= 1
                            continue
                        time = ev[0]
                        if time > t:
                            break
                        pop(heap)
                        self.now = time
                        count += 1
                        cb()
                    break
                # Pick the earliest candidate across batch cursor and heap.
                bev = batch[i] if i < n else None
                if heap:
                    ev = heap[0]
                    if bev is not None and bev < ev:
                        ev = bev
                        from_heap = False
                    else:
                        from_heap = True
                elif bev is not None:
                    ev = bev
                    from_heap = False
                else:
                    break
                cb = ev[3]
                if cb is None:  # cancelled: skip without executing
                    if from_heap:
                        pop(heap)
                        self._cancelled -= 1
                    else:
                        i += 1
                    continue
                time = ev[0]
                if t is not None and time > t:
                    break
                if max_events is not None and count >= max_events:
                    if t is not None:
                        raise SimulationError(
                            f"run_until({t!r}) exceeded max_events={max_events}"
                        )
                    raise SimulationError(
                        f"run() exceeded max_events={max_events} with live "
                        f"events pending at t={self.now}"
                    )
                if from_heap:
                    pop(heap)
                else:
                    i += 1
                self.now = time
                count += 1
                cb()
        finally:
            self._in_run = False
            self._executed += count
            if i < n:
                # Merge the unconsumed (and still live) batch tail back;
                # ordering is re-established lazily on next use.
                heap.extend(e for e in batch[i:] if e[3] is not None)
                self._unordered = True
            elif not heap:
                self._unordered = True  # empty: cheap appends until needed
        return count

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _drop_cancelled(self) -> None:
        self._ensure_ordered()
        heap = self._heap
        while heap and heap[0][3] is None:
            _heappop(heap)
            self._cancelled -= 1

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; triggers compaction.

        The tally can over-estimate (a handle cancelled *after* its event
        fired counts but occupies no slot); that only makes compaction
        fire early, never miss.
        """
        self._cancelled = c = self._cancelled + 1
        if c >= _COMPACT_MIN_SIZE and 2 * c > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (O(n)).

        Mutates the list *in place*: the drain loop holds a local
        reference to it across callbacks, and a callback's cancel can land
        here.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[3] is not None]
        if not self._unordered:
            heapq.heapify(heap)
        self._cancelled = 0
