"""Follower-side path measurement: the ``RTTs`` and ``ids`` lists (§III-C).

Each follower keeps, for its current leader:

* ``RTTs`` — the leader-measured RTT samples echoed back in heartbeats,
  held in a bounded window;
* ``ids`` — the heartbeat sequence IDs received, held sorted and
  de-duplicated (§III-C2: "inserts the IDs into the list in ascending
  order and ignores subsequent receptions when duplicate").

:meth:`PathMeasurement.record` stores one heartbeat and
:meth:`PathMeasurement.estimate` derives ``(μ_RTT, σ_RTT, p)`` from the
two windows.  This class is the one copy of that math: the policy calls
it on every heartbeat, and a different estimator (say a windowed order
statistic instead of ``μ + s·σ``) overrides :meth:`estimate`.

The loss rate is ``p = 1 − received / expected`` with
``expected = ids[-1] − ids[0] + 1`` — i.e. the fraction of the ID span that
never arrived.  Out-of-order arrival shrinks neither count (the insert is
positional), and duplicates are ignored, exactly as the paper specifies for
partially synchronous networks.

``minListSize`` gates tuning (Step 0 → Step 1 transition, §III-E):
:attr:`PathMeasurement.ready` only becomes true once enough RTT samples
exist.  ``maxListSize`` bounds both lists; the oldest datum is evicted.

σ uses the population convention (``ddof = 0``): the window *is* the
population the tuner reasons about, and it keeps ``σ = 0`` exact for a
single sample.  :func:`window_mean_std` is the direct numpy reference the
tests compare :meth:`PathMeasurement.estimate` against.

Implementation notes — both lists are on the per-heartbeat hot path of
every follower:

* The ID list is a ring (a plain list plus a head offset).  The
  overwhelmingly common arrival is *monotone* — each new ID is larger
  than everything in the window — so that case is one compare plus an
  append, and a full window evicts its oldest element by bumping the
  head offset (O(1) amortized; the dead prefix is compacted away once it
  exceeds the window size).  ``insort``-style positional insertion
  survives on the rare out-of-order path, preserving the paper's §III-C2
  semantics bit for bit.
* The RTT list is a preallocated ring with running ``Σx`` and ``Σx²``
  kept *relative to an offset* (the first sample after a reset): with
  RTT-scale values (hundreds of ms) and ms-scale spreads, raw
  ``Σx² − n·μ²`` loses ~6 digits to cancellation, while the shifted form
  keeps the estimate accurate to full precision.  The moments are also
  re-derived exactly from the ring every ``_RESYNC_INTERVAL`` samples to
  bound floating-point drift.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

__all__ = ["PathMeasurement", "window_mean_std"]

#: Recompute the RTT moments exactly every this many samples.
_RESYNC_INTERVAL = 4096

_INF = math.inf


def window_mean_std(values: np.ndarray | list[float]) -> tuple[float, float]:
    """Mean and population standard deviation of a sample window.

    Returns ``(0.0, 0.0)`` for an empty window (callers treat that as
    "no data; stay on defaults").
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0, 0.0
    return float(arr.mean()), float(arr.std(ddof=0))


class PathMeasurement:
    """Measurement state for one leader→follower path.

    Args:
        min_list_size: samples required before tuning may start
            (``minListSize``, paper default 10).
        max_list_size: bound on both lists (``maxListSize``, paper
            default 1000).
    """

    __slots__ = (
        "min_list_size",
        "max_list_size",
        "_ids",
        "_head",
        "_rtts",
        "_start",
        "_count",
        "_sum",
        "_sumsq",
        "_offset",
        "_pushes",
        "_resync_every",
        "duplicates_ignored",
        "ready",
    )

    def __init__(self, min_list_size: int = 10, max_list_size: int = 1000) -> None:
        if min_list_size < 1:
            raise ValueError(f"min_list_size must be >= 1, got {min_list_size!r}")
        if max_list_size < min_list_size:
            raise ValueError(
                f"max_list_size ({max_list_size!r}) must be >= "
                f"min_list_size ({min_list_size!r})"
            )
        self.min_list_size = int(min_list_size)
        self.max_list_size = cap = int(max_list_size)
        #: Sorted unique IDs; the live window is ``_ids[_head:]``.
        self._ids: list[int] = []
        self._head = 0
        # The RTT ring is a plain Python list, not an ndarray: scalar
        # loads/stores on an ndarray return np.float64 objects whose
        # arithmetic then infects the running moments (3-5× slower per op,
        # bit-identical values).
        self._rtts: list[float] = [0.0] * cap
        self._start = 0  # index of the oldest RTT
        self._count = 0
        self._sum = 0.0  # Σ (x - offset)
        self._sumsq = 0.0  # Σ (x - offset)²
        self._offset = 0.0
        # Samples ever recorded; reset() keeps it, so the resync cadence
        # runs on across fallbacks.
        self._pushes = 0
        # Exact-recompute cadence: every sample for small windows, where
        # one pass is cheaper than a numpy call; once per window turnover
        # (amortised O(1)) for large ones.
        self._resync_every = 1 if cap <= 64 else min(_RESYNC_INTERVAL, cap)
        #: Count of duplicate heartbeat receptions ignored (diagnostics).
        self.duplicates_ignored = 0
        #: Whether Step 1 (tuning) may run — enough RTT samples collected.
        #: A plain attribute (not a property) because the policy reads it
        #: on every heartbeat; maintained by record/reset.
        self.ready = False

    # -- recording --------------------------------------------------------- #

    def record(self, seq: int, rtt_ms: float | None = None) -> bool:
        """Store one heartbeat: its ID (Fig. 3b) and, when the leader
        echoed a fresh one, its RTT sample (Fig. 3a).

        The RTT is stored even when the ID is a duplicate.

        Returns:
            ``False`` if the ID was a duplicate and was ignored.
        """
        fresh = True
        ids = self._ids
        if ids and seq > ids[-1]:
            # Monotone fast path: in-order arrival (the steady state).
            ids.append(seq)
            head = self._head
            if len(ids) - head > self.max_list_size:
                head += 1  # evict the oldest (smallest) ID
                if head > self.max_list_size:
                    # Compact the dead prefix once it outgrows the window:
                    # each element is copied at most once per eviction run,
                    # so the amortized cost stays O(1) per sample.
                    del ids[:head]
                    head = 0
                self._head = head
        elif ids:
            # Out-of-order or duplicate (reordering / UDP duplication).
            head = self._head
            pos = bisect_left(ids, seq, head)
            if pos < len(ids) and ids[pos] == seq:
                self.duplicates_ignored += 1
                fresh = False
            else:
                ids.insert(pos, seq)
                if len(ids) - head > self.max_list_size:
                    self._head = head + 1
        else:
            ids.append(seq)

        if rtt_ms is None:
            return fresh
        if not 0.0 <= rtt_ms < _INF:
            raise ValueError(f"RTT must be finite and >= 0, got {rtt_ms!r}")
        count = self._count
        cap = self.max_list_size
        if count == cap:
            start = self._start
            old = self._rtts[start] - self._offset
            self._sum -= old
            self._sumsq -= old * old
            self._rtts[start] = rtt_ms
            start += 1
            self._start = 0 if start == cap else start
        else:
            if count == 0:
                self._offset = rtt_ms
            idx = self._start + count
            if idx >= cap:
                idx -= cap
            self._rtts[idx] = rtt_ms
            count += 1
            self._count = count
            if count >= self.min_list_size:
                self.ready = True
        d = rtt_ms - self._offset
        self._sum += d
        self._sumsq += d * d
        # The exact recompute also keeps the offset representative of the
        # *current* window when sample magnitudes shift by orders of
        # magnitude.
        pushes = self._pushes + 1
        self._pushes = pushes
        if pushes % self._resync_every == 0:
            self._resync()
        return fresh

    def reset(self) -> None:
        """Discard everything (fallback on election timeout, §III-B)."""
        self._ids.clear()
        self._head = 0
        self._start = 0
        self._count = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self._offset = 0.0
        self.ready = False

    def _resync(self) -> None:
        vals = np.asarray(self.rtts(), dtype=np.float64)
        # Anchoring at the window mean minimises |x - offset| and hence the
        # cancellation error of the running second moment.
        self._offset = float(vals.mean())
        d = vals - self._offset
        self._sum = float(d.sum())
        self._sumsq = float((d * d).sum())

    # -- derived measurements ----------------------------------------------- #

    def estimate(self) -> tuple[float, float, float]:
        """``(μ_RTT, σ_RTT, p)`` over the current windows.

        ``(0, 0)`` for an empty RTT window; ``p = 0`` with fewer than two
        IDs — a single observation defines no span, and "no evidence of
        loss" must not inflate ``K``.
        """
        count = self._count
        if count == 0:
            mu = sigma = 0.0
        else:
            mean_d = self._sum / count
            var = self._sumsq / count - mean_d * mean_d
            mu = self._offset + mean_d
            # FP rounding can push a tiny-variance window slightly negative.
            sigma = math.sqrt(var) if var > 0.0 else 0.0
        ids = self._ids
        head = self._head
        received = len(ids) - head
        if received < 2:
            return mu, sigma, 0.0
        p = 1.0 - received / (ids[-1] - ids[head] + 1)
        return mu, sigma, (p if p > 0.0 else 0.0)

    @property
    def rtt_count(self) -> int:
        return self._count

    @property
    def id_count(self) -> int:
        return len(self._ids) - self._head

    def ids(self) -> list[int]:
        """The live ID window, ascending (a copy; mostly for tests)."""
        return self._ids[self._head :]

    def rtts(self) -> list[float]:
        """The RTT window, oldest first (a copy)."""
        start = self._start
        end = start + self._count
        cap = self.max_list_size
        if end <= cap:
            return self._rtts[start:end]
        return self._rtts[start:] + self._rtts[: end - cap]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mu, sigma, p = self.estimate()
        return (
            f"PathMeasurement(rtts={self.rtt_count}, ids={self.id_count}, "
            f"ready={self.ready}, mu={mu:.3f}, sigma={sigma:.3f}, p={p:.4f})"
        )
