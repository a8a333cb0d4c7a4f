"""Time units and the per-node clock for the discrete-event simulator.

Time is a ``float`` measured in **milliseconds** since simulation start.
Milliseconds are the natural unit for this paper: every parameter it
discusses (election timeout, heartbeat interval, RTT, detection time,
out-of-service time) is quoted in ms.

There are two clocks:

* :attr:`EventLoop.now <repro.sim.loop.EventLoop.now>` — the *simulation*
  clock, the single source of truth physics runs on; only the loop
  advances it;
* :class:`NodeClock` (here) — one node's *local* view of time: an affine
  map (``offset`` + ``drift`` rate) over the simulation clock, standing in
  for the crystal-oscillator error and NTP offset a real host carries.
  Protocol code reads time exclusively through its node's clock, which
  is the first slice of the runtime abstraction (clock/timer/transport)
  the real-runtime backend needs: swap the ``NodeClock`` for one backed
  by ``time.monotonic`` and the protocol core never notices.
"""

from __future__ import annotations

import math

from repro.sim.loop import EventLoop

__all__ = ["NodeClock", "MS", "SECOND", "MINUTE"]

#: One millisecond in clock units (the base unit).
MS: float = 1.0
#: One second in clock units.
SECOND: float = 1000.0
#: One minute in clock units.
MINUTE: float = 60_000.0


class NodeClock:
    """One node's local clock: ``local = sim + offset_ms + drift * sim``.

    ``offset_ms`` models a fixed synchronisation error (NTP residual);
    ``drift`` a fractional rate error (crystal tolerance — ``0.01`` runs
    1 % fast).  Both start at ``0.0``, and the zero case is **bit-exact
    identity**: :meth:`now` returns the raw simulation time and
    :meth:`scale_duration` returns its argument unchanged, so a cluster
    with skew injection off replays byte-identically to one built before
    clocks existed.

    The two frames matter in two directions:

    * **timestamps** (:meth:`now`) are what the node writes down —
      measurement send times, lease anchors, trace times;
    * **durations** (:meth:`scale_duration`) convert a locally-specified
      interval (an election timeout the node *intends* to wait) into the
      simulation-frame delay the event loop must honour: a fast clock
      (``drift > 0``) experiences its timer early, so the sim-frame
      duration shrinks by ``1 / (1 + drift)``.

    Offset and drift are mutable so fault injection (the ``SetClock``
    scenario step) can skew a live node mid-run.  ``drift`` must stay
    ``> -1`` or local time would run backwards.
    """

    __slots__ = ("_loop", "offset_ms", "drift")

    def __init__(self, loop: EventLoop) -> None:
        self._loop = loop
        self.offset_ms = 0.0
        self.drift = 0.0

    @property
    def skewed(self) -> bool:
        """Whether this clock currently deviates from simulation time."""
        return self.offset_ms != 0.0 or self.drift != 0.0

    def set(self, *, offset_ms: float = 0.0, drift: float = 0.0) -> None:
        """(Re-)skew the clock; ``set()`` restores the identity."""
        # Negated forms: NaN fails every comparison, so it is rejected too.
        if not (-1.0 < drift < math.inf):
            raise ValueError(f"drift must be finite and > -1, got {drift!r}")
        if not (abs(offset_ms) < math.inf):
            raise ValueError(f"offset_ms must be finite, got {offset_ms!r}")
        self.offset_ms = float(offset_ms)
        self.drift = float(drift)

    def now(self) -> float:
        """Current *local* time (ms).

        The zero-skew fast path returns the loop's time untouched —
        bit-exact, so default-off clocks cannot perturb golden digests.
        """
        t = self._loop.now
        if self.offset_ms == 0.0 and self.drift == 0.0:
            return t
        return t + self.offset_ms + self.drift * t

    def sim_now(self) -> float:
        """The underlying simulation time (oracle/debug use only)."""
        return self._loop.now

    def scale_duration(self, duration: float) -> float:
        """Convert a local-frame duration to the simulation frame.

        A node that intends to wait ``duration`` local ms must sleep
        ``duration / (1 + drift)`` simulation ms.  Zero drift returns the
        argument unchanged (bit-exact; offsets cancel over intervals).
        """
        drift = self.drift
        if drift == 0.0:
            return duration
        return duration / (1.0 + drift)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeClock(offset_ms={self.offset_ms!r}, drift={self.drift!r})"
