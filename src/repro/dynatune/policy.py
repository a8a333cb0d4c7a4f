"""Tuning policies: how a node chooses its election parameters.

A :class:`TuningPolicy` is attached to each Raft node and consulted at
every point where an election parameter matters:

* arming the election timer (``election_timeout_ms``),
* scheduling the next heartbeat to a given follower
  (``heartbeat_interval_ms``),
* building/consuming heartbeat metadata (``heartbeat_meta`` /
  ``on_heartbeat`` / ``on_heartbeat_response``),
* reacting to election timeouts and leader changes (the fallback rule of
  §III-B: discard measurements, revert to defaults).

Implementations:

* :class:`StaticPolicy` — plain Raft.  Constant parameters, no metadata.
  Instantiate with 1/10 of the defaults for the paper's **Raft-Low**
  baseline.
* :class:`DynatunePolicy` — the paper's system; also covers the **Fix-K**
  variant via ``DynatuneConfig(fixed_k=10)``.

One policy object serves both roles a node can play: its *follower half*
measures the path from its current leader and tunes ``Et``/``h``; its
*leader half* stamps outgoing heartbeats and applies the ``h`` each
follower piggybacks back (§III-B step 3).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Protocol

from repro.dynatune.config import (
    DEFAULT_ELECTION_TIMEOUT_MS,
    DEFAULT_HEARTBEAT_INTERVAL_MS,
    ET_FLOOR_MS,
    H_FLOOR_MS,
    K_MAX,
    DynatuneConfig,
)
from repro.dynatune.measurement import PathMeasurement
from repro.dynatune.metadata import HeartbeatMeta, HeartbeatResponseMeta
from repro.dynatune.tuner import (
    HeartbeatTuning,
    required_heartbeats,
    tune_heartbeat,
)

__all__ = ["TuningPolicy", "StaticPolicy", "DynatunePolicy"]

#: The smallest ``h`` a well-formed follower can piggyback.
_MIN_TUNED_H_MS = min(H_FLOOR_MS, ET_FLOOR_MS)


class TuningPolicy(Protocol):
    """Interface between a Raft node and its parameter-tuning layer."""

    # -- follower half --------------------------------------------------- #

    def election_timeout_ms(self, leader: str | None) -> float:
        """Base election timeout ``Et`` toward ``leader`` (pre-randomization).

        ``leader=None`` (no current leader) must return the default — this
        value is also what the lease check and the leader's own quorum
        check use.
        """
        ...

    def on_heartbeat(
        self, leader: str, meta: HeartbeatMeta | None, now_ms: float
    ) -> HeartbeatResponseMeta | None:
        """Process heartbeat metadata; return the response metadata."""
        ...

    def on_election_timeout(self, now_ms: float) -> None:
        """Election timer expired: apply the fallback rule."""
        ...

    def on_leader_change(self, leader: str | None, now_ms: float) -> None:
        """A different leader is now in charge: restart measurement."""
        ...

    # -- leader half ------------------------------------------------------ #

    def heartbeat_interval_ms(self, follower: str) -> float:
        """Interval ``h`` for the next heartbeat to ``follower``."""
        ...

    def heartbeat_meta(self, follower: str, now_ms: float) -> HeartbeatMeta | None:
        """Metadata to stamp on the next heartbeat to ``follower``."""
        ...

    def on_heartbeat_response(
        self, follower: str, meta: HeartbeatResponseMeta | None, now_ms: float
    ) -> None:
        """Process a follower's response metadata (RTT sample, tuned h)."""
        ...

    def on_become_leader(self, now_ms: float) -> None: ...

    def on_step_down(self, now_ms: float) -> None: ...

    def lease_bound_ms(self) -> float | None:
        """Lower bound on the election timeout any current voter is
        applying, for leader-lease reads — no follower grants a vote
        before ``last leader contact + Et``, so a lease of
        ``bound − drift margin`` from confirmed quorum contact cannot
        outlive this leader's exclusivity.  ``None`` means the policy
        cannot bound it (leases must fall back to ReadIndex).

        Static policies return their configured ``Et``; Dynatune returns
        the minimum over every follower's last *piggybacked* tuned ``Et``
        (default ``Et`` for followers still on defaults) — at most one
        response stale, which the caller's drift margin must absorb
        together with clock drift and the response's one-way delay.
        """
        ...

    def on_peer_removed(self, peer: str) -> None:
        """``peer`` left the cluster for good (committed ``remove`` config
        change): drop any per-peer tuning state so a long-lived policy
        does not leak entries across membership churn."""
        ...

    #: Transport for heartbeats: ``"udp"`` or ``"tcp"``.
    heartbeat_channel: str


# --------------------------------------------------------------------- #
# static baseline (Raft / Raft-Low)
# --------------------------------------------------------------------- #


class StaticPolicy:
    """Fixed election parameters — the Raft baseline of every experiment.

    Args:
        election_timeout_ms: ``Et`` (paper default 1000 ms; Raft-Low 100 ms).
        heartbeat_interval_ms: ``h`` (paper default 100 ms; Raft-Low 10 ms).
    """

    #: etcd carries heartbeats over TCP.
    heartbeat_channel = "tcp"

    def __init__(
        self, election_timeout_ms: float = 1000.0, heartbeat_interval_ms: float = 100.0
    ) -> None:
        # An infinite timer never fires; NaN fails every comparison.
        if not (
            0.0 < election_timeout_ms < math.inf and 0.0 < heartbeat_interval_ms < math.inf
        ):
            raise ValueError(
                "election timeout and heartbeat interval must be finite and > 0"
            )
        self._et = float(election_timeout_ms)
        self._h = float(heartbeat_interval_ms)

    @classmethod
    def raft_default(cls) -> "StaticPolicy":
        """The paper's Raft baseline: Et = 1000 ms, h = 100 ms."""
        return cls(1000.0, 100.0)

    @classmethod
    def raft_low(cls) -> "StaticPolicy":
        """The paper's Raft-Low baseline: parameters at 1/10 of default."""
        return cls(100.0, 10.0)

    # follower half
    def election_timeout_ms(self, leader: str | None) -> float:  # noqa: ARG002
        return self._et

    def on_heartbeat(
        self, leader: str, meta: HeartbeatMeta | None, now_ms: float
    ) -> HeartbeatResponseMeta | None:  # noqa: ARG002
        return None

    def on_election_timeout(self, now_ms: float) -> None:  # noqa: ARG002
        return None

    def on_leader_change(self, leader: str | None, now_ms: float) -> None:  # noqa: ARG002
        return None

    # leader half
    def heartbeat_interval_ms(self, follower: str) -> float:  # noqa: ARG002
        return self._h

    def heartbeat_meta(self, follower: str, now_ms: float) -> HeartbeatMeta | None:  # noqa: ARG002
        return None

    def on_heartbeat_response(
        self, follower: str, meta: HeartbeatResponseMeta | None, now_ms: float
    ) -> None:  # noqa: ARG002
        return None

    def on_become_leader(self, now_ms: float) -> None:  # noqa: ARG002
        return None

    def on_step_down(self, now_ms: float) -> None:  # noqa: ARG002
        return None

    def lease_bound_ms(self) -> float | None:
        return self._et  # every follower waits the same static Et

    def on_peer_removed(self, peer: str) -> None:  # noqa: ARG002
        return None  # static policies hold no per-peer state

    def __repr__(self) -> str:
        return f"StaticPolicy(Et={self._et} ms, h={self._h} ms)"


# --------------------------------------------------------------------- #
# Dynatune
# --------------------------------------------------------------------- #


@dataclasses.dataclass(slots=True)
class _FollowerPathState:
    """Leader-side per-follower state (Fig. 3a's leader role)."""

    next_seq: int = 0
    last_rtt_ms: float | None = None
    rtt_seq: int = 0
    applied_h_ms: float | None = None
    #: The Et this follower last piggybacked (None = still on defaults).
    reported_et_ms: float | None = None


class DynatunePolicy:
    """The paper's tuning mechanism (§III), per node.

    Follower half: maintains one :class:`PathMeasurement` for the current
    leader, recomputes ``Et`` on every RTT sample and ``h`` on every
    heartbeat, and piggybacks ``h`` on responses.

    Leader half: keeps a per-follower sequence counter and last measured
    RTT (sent back out on the next heartbeat), and applies each follower's
    piggybacked ``h`` to that follower's heartbeat timer.
    """

    #: §III-E: over UDP a lost heartbeat is observable, where TCP's
    #: retransmission would mask it.
    heartbeat_channel = "udp"

    def __init__(self, config: DynatuneConfig | None = None) -> None:
        self.config = config if config is not None else DynatuneConfig()
        cfg = self.config
        # follower half
        self._meas = PathMeasurement(cfg.min_list_size, cfg.max_list_size)
        self._leader: str | None = None
        self._tuned_et: float | None = None
        self._tuned_h: float | None = None
        self._last_rtt_seq = 0
        self._last_hb_ms: float | None = None
        # leader half
        self._paths: dict[str, _FollowerPathState] = {}
        #: :meth:`lease_bound_ms` of the current ``_paths``; every change
        #: to a path's presence or reported Et sets ``_bound_stale``.
        self._bound: float | None = None
        self._bound_stale = False
        # diagnostics
        self.fallbacks = 0
        self.retunes = 0
        #: Measurement windows discarded because a heartbeat gap spanned a
        #: partition/pause outage (see :meth:`on_heartbeat`).
        self.gap_resets = 0
        #: Retunes where the h floor bound (effective K < requested K).
        self.floor_clamps = 0
        #: ``(h, requested_k, effective_k, clamped)`` of the latest retune,
        #: surfaced as a :class:`HeartbeatTuning` via :attr:`last_tuning`.
        self._last_tuning: tuple[float, int, int, bool] | None = None
        # Per-heartbeat hot-path caches: config fields are immutable, and
        # required_heartbeats(p) is pure, so memoizing the last (p -> K)
        # pair turns the common loss-stable regime into one comparison.
        self._last_p: float = -1.0
        self._last_k: int = 1

    # -- introspection (used by experiments/tests) ------------------------- #

    @property
    def tuned_et_ms(self) -> float | None:
        """Currently tuned ``Et`` (None while on defaults)."""
        return self._tuned_et

    @property
    def tuned_h_ms(self) -> float | None:
        """Currently tuned ``h`` this follower piggybacks (None in Step 0)."""
        return self._tuned_h

    @property
    def measurement(self) -> PathMeasurement:
        return self._meas

    @property
    def last_tuning(self) -> HeartbeatTuning | None:
        """Metadata of the most recent retune (clamp provenance, §III-D2).

        Materialized lazily: the hot path stores a plain tuple and this
        diagnostic view builds the dataclass only when somebody looks.
        """
        t = self._last_tuning
        if t is None:
            return None
        return HeartbeatTuning(
            h_ms=t[0], requested_k=t[1], effective_k=t[2], floor_clamped=t[3]
        )

    def applied_h_ms(self, follower: str) -> float | None:
        """The ``h`` the leader half is currently applying to ``follower``."""
        st = self._paths.get(follower)
        return st.applied_h_ms if st is not None else None

    # -- follower half ------------------------------------------------------ #

    def election_timeout_ms(self, leader: str | None) -> float:
        if leader is not None and leader == self._leader and self._tuned_et is not None:
            return self._tuned_et
        return DEFAULT_ELECTION_TIMEOUT_MS

    def on_heartbeat(
        self, leader: str, meta: HeartbeatMeta | None, now_ms: float
    ) -> HeartbeatResponseMeta | None:
        if leader != self._leader:
            # Defensive: the node calls on_leader_change first, but a
            # heartbeat racing a leader change must not pollute the window.
            self.on_leader_change(leader, now_ms)
        if meta is None:
            return None
        last_hb = self._last_hb_ms
        if last_hb is not None:
            et = self._tuned_et
            if et is None:
                et = DEFAULT_ELECTION_TIMEOUT_MS
            if now_ms - last_hb > 2.0 * et:
                # The gap outlasted every possible randomizedTimeout draw
                # ([Et, 2Et)), yet no fallback ran — only a frozen-timer
                # outage (a container pause, a partition healing around a
                # paused node) produces that.  The window predates the
                # outage: its RTTs describe the old path and the ID span
                # counts the whole outage as loss, which would explode K to
                # K_MAX and collapse h for up to maxListSize heartbeats
                # after the heal.  Restart measurement instead, exactly
                # like the §III-B fallback.
                self._reset_follower_state()
                self.gap_resets += 1
        self._last_hb_ms = now_ms
        rtt = meta.rtt_sample_ms
        if rtt is not None and meta.rtt_sample_seq > self._last_rtt_seq:
            self._last_rtt_seq = meta.rtt_sample_seq
        else:
            rtt = None  # none echoed, or recorded with an earlier heartbeat
        meas = self._meas
        meas.record(meta.seq, rtt)
        if meas.ready:
            self._retune()
        return HeartbeatResponseMeta(
            meta.seq, meta.send_ts, self._tuned_h, self._tuned_et
        )

    def _retune(self) -> None:
        """Steps 1–2 of §III-B: derive Et from RTT stats, then h from loss.

        This runs once per received heartbeat on every follower, so the
        tuning formulas are applied inline (identical math and clamps to
        :func:`tune_election_timeout` / :func:`tune_heartbeat`, which stay
        the reference implementations, pinned by
        tests/dynatune/test_policy.py::test_retune_matches_tuner_references)
        and the pure ``p → K`` mapping is memoized on the last loss rate —
        in a loss-stable regime the log evaluation happens once, not per
        beat.
        """
        cfg = self.config
        mu, sigma, p = self._meas.estimate()
        if mu < 0.0 or sigma < 0.0:
            raise ValueError(
                f"mean/std RTT must be >= 0, got mu={mu!r} sigma={sigma!r}"
            )
        et = mu + cfg.safety_factor * sigma
        if et < ET_FLOOR_MS:
            et = ET_FLOOR_MS
        k = cfg.fixed_k
        if k is None:
            if p == self._last_p:
                k = self._last_k
            else:
                k = required_heartbeats(p, cfg.arrival_probability, k_max=K_MAX)
                self._last_p = p
                self._last_k = k
        h = et / k
        if h >= H_FLOOR_MS:
            self._last_tuning = (h, k, k, False)
        else:
            tuning = tune_heartbeat(et, k, floor_ms=H_FLOOR_MS)
            h = tuning.h_ms
            self._last_tuning = (h, k, tuning.effective_k, True)
            self.floor_clamps += 1
        self._tuned_et = et
        self._tuned_h = h
        self.retunes += 1

    def _reset_follower_state(self) -> None:
        """Discard the window and tuned values (back to Step 0 defaults)."""
        self._meas.reset()
        self._tuned_et = None
        self._tuned_h = None
        self._last_rtt_seq = 0
        self._last_hb_ms = None

    def on_election_timeout(self, now_ms: float) -> None:  # noqa: ARG002
        """Fallback (§III-B): discard data, revert to defaults.

        With ``fallback_on_timeout=False`` (ablation) the tuned state is
        kept — the node keeps campaigning on its small tuned timeout.
        """
        if not self.config.fallback_on_timeout:
            return
        self._reset_follower_state()
        self.fallbacks += 1

    def on_leader_change(self, leader: str | None, now_ms: float) -> None:  # noqa: ARG002
        if leader == self._leader:
            return
        self._leader = leader
        self._reset_follower_state()

    # -- leader half --------------------------------------------------------- #

    def heartbeat_interval_ms(self, follower: str) -> float:
        st = self._paths.get(follower)
        if st is not None and st.applied_h_ms is not None:
            return st.applied_h_ms
        return DEFAULT_HEARTBEAT_INTERVAL_MS

    def heartbeat_meta(self, follower: str, now_ms: float) -> HeartbeatMeta:
        st = self._paths.get(follower)
        if st is None:
            st = self._paths[follower] = _FollowerPathState()
            self._bound_stale = True  # an untuned path voids the bound
        seq = st.next_seq + 1
        st.next_seq = seq
        return HeartbeatMeta(seq, now_ms, st.last_rtt_ms, st.rtt_seq)

    def on_heartbeat_response(
        self, follower: str, meta: HeartbeatResponseMeta | None, now_ms: float
    ) -> None:
        if meta is None:
            return
        st = self._paths.get(follower)
        if st is None:
            st = self._paths[follower] = _FollowerPathState()
        rtt = now_ms - meta.echo_ts
        if rtt >= 0.0:
            st.last_rtt_ms = rtt
            st.rtt_seq += 1
        st.reported_et_ms = meta.tuned_et_ms
        self._bound_stale = True
        if meta.tuned_h_ms is not None:
            # Apply the follower's h as-is: tune_heartbeat already clamped
            # it into [min(h_floor, Et), Et], and a piggybacked h *below*
            # h_floor means the follower's whole Et window is shorter than
            # the floor — re-raising it here would space heartbeats past
            # the election timer (the K·h ≤ Et violation again, just moved
            # to the leader side).  Values no well-formed follower can
            # produce (< min(h_floor, et_floor)) are ignored instead of
            # "repaired": that is the §II-B heartbeat-storm guard.
            if meta.tuned_h_ms >= _MIN_TUNED_H_MS:
                st.applied_h_ms = meta.tuned_h_ms

    def lease_bound_ms(self) -> float | None:
        """Minimum *tuned* Et across the followers this reign has heard
        from, or ``None`` (no lease) while any of them is still untuned.

        The ``None`` case is load-bearing, not just conservatism: an
        untuned follower applies the default Et *today* but first-tunes
        to ``mu + c·sigma`` — potentially an order of magnitude lower —
        the moment its measurement window fills, and the leader only
        learns one response later.  A lease computed from the default
        would outlive that follower's vote-refusal window across the
        cliff.  Between ordinary retunes the reported value is at most
        one response stale and moves by one window sample; that slew,
        plus clock drift and the response's one-way delay, is what the
        caller's ``lease_drift_margin_ms`` must absorb.

        Read once per lease read, but the paths change only when a
        heartbeat goes to a follower not yet seen, a response arrives, or
        the reign or membership changes; the minimum is recomputed on the
        first read after such a change.
        """
        if self._bound_stale:
            self._bound = self._min_reported_et()
            self._bound_stale = False
        return self._bound

    def _min_reported_et(self) -> float | None:
        bound: float | None = None
        for st in self._paths.values():
            et = st.reported_et_ms
            if et is None:
                return None
            if bound is None or et < bound:
                bound = et
        return bound

    def on_become_leader(self, now_ms: float) -> None:  # noqa: ARG002
        # Fresh leadership: per-follower sequence spaces restart, and no
        # stale RTT/h survives from a previous reign.
        self._paths = {}
        self._bound_stale = True

    def on_step_down(self, now_ms: float) -> None:  # noqa: ARG002
        self._paths = {}
        self._bound_stale = True

    def on_peer_removed(self, peer: str) -> None:
        """Drop the removed peer's leader-side path state (measurement
        window, applied ``h``, sequence space).  Names are never reused,
        so without this a long-lived policy leaks one
        :class:`_FollowerPathState` per node the cluster ever churned
        through."""
        self._paths.pop(peer, None)
        self._bound_stale = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynatunePolicy(Et={self._tuned_et}, h={self._tuned_h}, "
            f"leader={self._leader!r}, fallbacks={self.fallbacks})"
        )
