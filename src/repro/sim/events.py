"""Event records and handles for the discrete-event scheduler.

Events are totally ordered by ``(time, priority, seq)``:

* ``time`` — absolute virtual time (ms) at which the event fires;
* ``priority`` — tie-break for events scheduled at the same instant; lower
  fires first.  Message deliveries default to priority ``0`` and timer
  expirations to priority ``10`` so that a heartbeat arriving at exactly the
  same virtual instant a follower's election timer would expire *resets the
  timer first* — matching the behaviour of a real server where the network
  interrupt is processed before the timer callback that is still queued.
* ``seq`` — global insertion counter; guarantees deterministic FIFO order
  among otherwise identical events.

Determinism of this total order is what makes every experiment in the paper
reproducible bit-for-bit from a seed.

Representation
--------------

An :class:`Event` *is* its own heap entry: a ``list`` subclass laid out as
``[time, priority, seq, callback]``.  This buys the two properties the hot
path needs:

* heap sifts compare events with ``list``'s C implementation, element-wise
  over ``(time, priority, seq)`` — and because ``seq`` is unique the
  comparison never reaches the trailing callback.  No ``__lt__`` is
  defined on the subclass (that would drop every comparison back into the
  interpreter) and no per-comparison key tuples are allocated;
* one object per scheduled event — the entry doubles as the cancellation
  handle returned by :meth:`EventLoop.schedule`, so there is no separate
  handle allocation and no wrapper indirection.

Cancellation clears slot 3 (the callback) to ``None``, which both marks the
event dead for the loop's lazy deletion and releases the closure
immediately.  External code should use the named accessors (``.time``,
``.cancelled``, ``.cancel()``), not the list layout.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Event", "PRIORITY_MESSAGE", "PRIORITY_TIMER", "PRIORITY_CONTROL"]

#: Priority for network message deliveries.
PRIORITY_MESSAGE: int = 0
#: Priority for control actions (fault injection, schedule changes).
PRIORITY_CONTROL: int = 5
#: Priority for timer expirations.
PRIORITY_TIMER: int = 10


class Event(list):
    """A scheduled callback, doubling as heap entry and cancellation handle.

    Construct with the 4-element layout ``Event((time, priority, seq,
    callback))`` (done by :meth:`~repro.sim.loop.EventLoop.schedule`); a
    cancelled event has ``callback`` slot ``None``.
    """

    __slots__ = ()

    # NOTE: deliberately no __init__/__lt__/__eq__ overrides — list's
    # C-level construction and comparison are the whole point.

    @property
    def time(self) -> float:
        """Absolute virtual time at which the event will fire."""
        return self[0]

    @property
    def priority(self) -> int:
        return self[1]

    @property
    def seq(self) -> int:
        return self[2]

    @property
    def callback(self) -> Callable[[], Any] | None:
        return self[3]

    @property
    def cancelled(self) -> bool:
        return self[3] is None

    def cancel(self) -> bool:
        """Cancel the event.

        Returns:
            ``True`` if the event was live and is now cancelled, ``False``
            if it had already been cancelled (idempotent).
        """
        if self[3] is None:
            return False
        self[3] = None
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[3] is None else "pending"
        return f"Event(t={self[0]!r}, prio={self[1]!r}, seq={self[2]!r}, {state})"
