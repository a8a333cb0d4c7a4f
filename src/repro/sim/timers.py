"""Resettable timers on top of the event loop.

Raft is timer-driven: followers run an election timer that is *reset* on
every heartbeat, and a Dynatune leader runs one heartbeat timer **per
follower** (each leader-follower pair has its own tuned interval ``h``,
§III-B).  This module provides the small abstraction both need:

* :class:`Timer` — a named one-shot timer with ``start / reset / cancel``
  and an expiry callback.  Resets are **lazy** (the asyncio/Go timer trick):
  the timer tracks a *logical deadline* separately from the one event it
  keeps scheduled, so the per-heartbeat reset that pushes the deadline out
  is two attribute writes — no heap traffic at all.  Only when the stale
  event fires early does the timer re-arm itself at the true deadline.
* :class:`TimerService` — a per-node factory that can freeze and thaw all
  of a node's timers, which is how the "container sleep" fault of §IV-B1 is
  implemented: a paused node's timers stop and its callbacks never run.
* :class:`DeadlineQueue` — many same-length timeouts (a client's
  per-request retry deadlines) behind **one** scheduled event: such a
  timeout almost always sees its request settle first, so it should cost
  a deque append, not a heap push and a cancel.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Any, Callable

from repro.sim.events import PRIORITY_TIMER
from repro.sim.loop import EventLoop, SimulationError

__all__ = ["Timer", "TimerService", "DeadlineQueue"]


class Timer:
    """A one-shot, resettable virtual timer.

    The timer is inert until :meth:`start` (or :meth:`reset`) is called.
    When it expires it invokes ``callback()`` once; restart it explicitly if
    periodic behaviour is wanted (Raft heartbeat loops restart themselves in
    the callback, which lets Dynatune change the interval between ticks).

    Internally the logical ``_deadline`` is authoritative; ``_handle`` is
    the single scheduled loop event, which may lag behind the deadline after
    lazy resets.  Invariant: whenever the timer is running, a live event is
    scheduled at some time ``<= _deadline``.
    """

    __slots__ = ("_loop", "name", "_callback", "_handle", "_handle_time", "_deadline")

    def __init__(self, loop: EventLoop, name: str, callback: Callable[[], Any]) -> None:
        self._loop = loop
        self.name = name
        self._callback = callback
        self._handle = None
        self._handle_time = 0.0
        self._deadline: float | None = None

    # -- state ---------------------------------------------------------- #

    @property
    def running(self) -> bool:
        """Whether an expiration is currently pending."""
        return self._deadline is not None

    @property
    def deadline(self) -> float | None:
        """Absolute expiry time (ms) if running, else ``None``."""
        return self._deadline

    @property
    def remaining(self) -> float | None:
        """Time (ms) until expiry if running, else ``None``."""
        if self._deadline is None:
            return None
        return self._deadline - self._loop.now

    # -- control -------------------------------------------------------- #

    def start(self, duration: float) -> None:
        """Arm the timer to expire ``duration`` ms from now.

        Raises:
            SimulationError: if the timer is already running (use
                :meth:`reset` to re-arm) or ``duration`` is invalid.
        """
        if self._deadline is not None:
            raise SimulationError(f"timer {self.name!r} already running; use reset()")
        self.reset(duration)

    def reset(self, duration: float) -> None:
        """(Re-)arm the timer, cancelling any pending expiration.

        This is the operation a follower performs on every heartbeat.  The
        fast path (new deadline at or beyond the scheduled event, i.e. every
        heartbeat-driven extension) touches only this object's attributes.
        """
        if not (0.0 <= duration < inf):  # also rejects NaN
            raise SimulationError(
                f"timer {self.name!r} duration must be >= 0 and finite, "
                f"got {duration!r}"
            )
        deadline = self._loop.now + duration
        self._deadline = deadline
        if self._handle is not None:
            if self._handle_time <= deadline:
                return  # lazy: the stale event re-arms when it fires
            self._handle.cancel()  # deadline moved earlier: re-arm eagerly
        self._handle = self._loop._push_event(deadline, self._fire, PRIORITY_TIMER)
        self._handle_time = deadline

    def cancel(self) -> bool:
        """Disarm the timer.  Returns ``True`` if it had been running."""
        was_running = self._deadline is not None
        self._deadline = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        return was_running

    def _fire(self) -> None:
        self._handle = None
        deadline = self._deadline
        if deadline is None:  # pragma: no cover - cancel also cancels the event
            return
        if deadline > self._loop.now:
            # Stale event from a lazy reset: re-arm at the true deadline.
            self._handle = self._loop._push_event(deadline, self._fire, PRIORITY_TIMER)
            self._handle_time = deadline
            return
        self._deadline = None
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.running:
            return f"Timer({self.name!r}, deadline={self.deadline!r})"
        return f"Timer({self.name!r}, idle)"


class TimerService:
    """Factory and registry for one node's timers, with freeze/thaw.

    Freezing is used by the pause fault (§IV-B1 puts the leader container to
    sleep): all pending expirations are cancelled and their *remaining*
    durations recorded; thawing re-arms each frozen timer with its remaining
    time, as an OS would when a process is resumed.
    """

    def __init__(self, loop: EventLoop, owner: str) -> None:
        self._loop = loop
        self._owner = owner
        self._timers: dict[str, Timer] = {}
        self._frozen: dict[str, float] | None = None

    def timer(self, name: str, callback: Callable[[], Any]) -> Timer:
        """Create (or fetch) the timer called ``name`` for this node."""
        if name in self._timers:
            return self._timers[name]
        t = Timer(self._loop, f"{self._owner}/{name}", callback)
        self._timers[name] = t
        return t

    def get(self, name: str) -> Timer | None:
        return self._timers.get(name)

    def drop(self, name: str) -> None:
        """Cancel and forget a timer (leaders drop per-follower timers on
        step-down)."""
        t = self._timers.pop(name, None)
        if t is not None:
            t.cancel()

    def names(self) -> list[str]:
        return sorted(self._timers)

    def freeze(self) -> None:
        """Suspend all running timers, remembering their remaining time."""
        if self._frozen is not None:
            raise SimulationError(f"timers of {self._owner!r} already frozen")
        frozen: dict[str, float] = {}
        for name, t in self._timers.items():
            rem = t.remaining
            if rem is not None:
                frozen[name] = rem
                t.cancel()
        self._frozen = frozen

    def thaw(self) -> None:
        """Resume previously frozen timers with their remaining durations."""
        if self._frozen is None:
            raise SimulationError(f"timers of {self._owner!r} are not frozen")
        frozen, self._frozen = self._frozen, None
        for name, remaining in sorted(frozen.items()):
            t = self._timers.get(name)
            if t is not None and not t.running:
                t.reset(remaining)

    def cancel_all(self) -> None:
        """Disarm every timer (crash fault: state is lost, nothing resumes)."""
        for t in self._timers.values():
            t.cancel()
        self._frozen = None


class DeadlineQueue:
    """Constant-length timeouts of one owner behind a single loop event.

    :meth:`add` appends ``now + timeout``, the sequence number it reserves
    and the token to three parallel deques (no tuple per entry: an entry
    lives a whole timeout, long enough for the cyclic collector to see
    it).  The timeout is a constant, so deadlines arrive sorted and the
    deques are a priority queue.  One loop event is armed while any entry
    remains, for the earliest entry that was live when it was armed, at
    that entry's *stored* deadline and under the sequence number reserved
    at :meth:`add` — the ``(time, priority, seq)`` key a per-token
    ``schedule(timeout, ...)`` would have had, so ``expire`` runs at the
    same instant and in the same order relative to every other event,
    ties included.

    Nothing is cancelled: the owner answers ``live(token)``, and entries
    whose token has settled are dropped as they reach the head (a token
    that stopped being live must never become live again).  ``expire`` is
    only called for live tokens; it may :meth:`add`.
    """

    __slots__ = (
        "_loop",
        "timeout",
        "_expire",
        "_live",
        "_priority",
        "_deadlines",
        "_seqs",
        "_tokens",
        "_armed",
    )

    def __init__(
        self,
        loop: EventLoop,
        timeout: float,
        expire: Callable[[Any], Any],
        live: Callable[[Any], bool],
        priority: int,
    ) -> None:
        if not (0.0 <= timeout < inf):  # also rejects NaN
            raise SimulationError(f"timeout must be >= 0 and finite, got {timeout!r}")
        self._loop = loop
        self.timeout = timeout
        self._expire = expire
        self._live = live
        self._priority = priority
        self._deadlines: deque[float] = deque()
        self._seqs: deque[int] = deque()
        self._tokens: deque[Any] = deque()
        self._armed = False

    def add(self, token: Any) -> None:
        """Start ``token``'s timeout now."""
        loop = self._loop
        deadline = loop.now + self.timeout
        seq = loop._reserve_seq()
        self._deadlines.append(deadline)
        self._seqs.append(seq)
        self._tokens.append(token)
        if not self._armed:
            self._armed = True
            loop._push_reserved(deadline, self._priority, seq, self._fire)

    def _fire(self) -> None:
        """The armed event: expire the head it was armed for (if still
        live), then re-arm for the next live entry at its stored key."""
        deadlines = self._deadlines
        seqs = self._seqs
        tokens = self._tokens
        live = self._live
        deadlines.popleft()
        seqs.popleft()
        token = tokens.popleft()
        if live(token):
            self._expire(token)
        while tokens:
            if live(tokens[0]):
                self._loop._push_reserved(
                    deadlines[0], self._priority, seqs[0], self._fire
                )
                return
            deadlines.popleft()
            seqs.popleft()
            tokens.popleft()
        self._armed = False
