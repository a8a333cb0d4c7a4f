"""The tuning formulas of §III-D, with the edge cases pinned down.

* **Election timeout** (§III-D1):  ``Et = μ_RTT + s·σ_RTT``.  The paper's
  safety factor ``s`` trades detection speed against false-detection risk
  (they use ``s = 2``).
* **Heartbeat redundancy** (§III-D2): the smallest ``K`` with
  ``1 − p^K ≥ x``, i.e. ``K = ⌈log_p(1 − x)⌉``.
* **Heartbeat interval**: ``h = Et / K`` — ``K`` heartbeats spaced equally
  inside one election-timeout window, so at least one arrives within ``Et``
  with probability ≥ ``x``.

Edge cases the formulas must survive in a live system:

* ``p = 0``  → any single heartbeat arrives: ``K = 1`` (``log_0`` is
  undefined; the limit is what the paper's requirement means).
* ``p`` extremely close to 1 (a follower measured near-total loss) →
  ``K`` explodes; it is clamped to ``k_max`` because sending heartbeats
  every few microseconds would be the resource-exhaustion failure the
  paper warns about in §II-B.
* Tuned values are clamped to configured floors so that a degenerate
  measurement (e.g. ``μ ≈ 0`` on a loopback-fast path) cannot arm a
  zero-length timer.  Clamping ``h`` up to the floor silently *lowers* the
  number of heartbeats that fit inside one ``Et`` window, so
  :func:`tune_heartbeat` re-derives the effective ``K`` (and never lets
  ``h`` exceed ``Et`` itself) instead of pretending the requested ``K``
  still holds — the §III-D2 guarantee is ``K·h ≤ Et``, not ``h = Et/K``.
"""

from __future__ import annotations

import dataclasses
import math

from repro.dynatune.config import ET_FLOOR_MS

__all__ = [
    "HeartbeatTuning",
    "required_heartbeats",
    "tune_election_timeout",
    "tune_heartbeat",
]


def tune_election_timeout(
    mu_rtt_ms: float,
    sigma_rtt_ms: float,
    *,
    safety_factor: float,
) -> float:
    """``Et = μ + s·σ``, raised to at least ``ET_FLOOR_MS``, the policy's floor.

    Raises:
        ValueError: on negative inputs (a negative μ or σ indicates a
            corrupted measurement stream and must not be papered over).
    """
    if mu_rtt_ms < 0.0 or sigma_rtt_ms < 0.0:
        raise ValueError(
            f"mean/std RTT must be >= 0, got mu={mu_rtt_ms!r} sigma={sigma_rtt_ms!r}"
        )
    if safety_factor < 0.0:
        raise ValueError(f"safety factor must be >= 0, got {safety_factor!r}")
    et = mu_rtt_ms + safety_factor * sigma_rtt_ms
    if et < ET_FLOOR_MS:
        et = ET_FLOOR_MS
    return et


def required_heartbeats(
    loss_rate: float,
    arrival_probability: float,
    *,
    k_max: int = 50,
) -> int:
    """Smallest ``K`` with ``1 − p^K ≥ x``, clamped to ``[1, k_max]``.

    Args:
        loss_rate: measured per-heartbeat loss probability ``p``.
        arrival_probability: target ``x`` ∈ (0, 1).
        k_max: upper clamp on heartbeat redundancy.
    """
    if not (0.0 < arrival_probability < 1.0):
        raise ValueError(
            f"arrival probability x must be in (0, 1), got {arrival_probability!r}"
        )
    if not (0.0 <= loss_rate <= 1.0):
        raise ValueError(f"loss rate must be in [0, 1], got {loss_rate!r}")
    if loss_rate <= 0.0:
        return 1
    if loss_rate >= 1.0:
        return k_max
    # K = ceil(log(1-x) / log(p)); both logs are negative.
    k = math.ceil(math.log(1.0 - arrival_probability) / math.log(loss_rate))
    if k < 1:
        return 1
    return min(k, k_max)


@dataclasses.dataclass(slots=True, frozen=True)
class HeartbeatTuning:
    """Result of :func:`tune_heartbeat` — the interval plus its provenance.

    Attributes:
        h_ms: the heartbeat interval to apply.
        requested_k: the redundancy ``K`` the loss formula asked for.
        effective_k: heartbeats that actually fit in one ``Et`` window at
            ``h_ms`` (equals ``requested_k`` unless a clamp bound).
        floor_clamped: True when ``floor_ms`` (or the ``h ≤ Et`` cap)
            overrode ``Et / K`` — the signal that the measured loss regime
            is asking for more redundancy than the floor permits.
    """

    h_ms: float
    requested_k: int
    effective_k: int
    floor_clamped: bool


def tune_heartbeat(
    et_ms: float,
    k: int,
    *,
    floor_ms: float = 1.0,
) -> HeartbeatTuning:
    """``h = Et / K``, clamped to ``[floor_ms, Et]``, with honest metadata.

    The §III-D2 requirement is that the ``K`` heartbeats spaced ``h`` apart
    all land inside one ``Et`` window (``K·h ≤ Et``).  When ``Et / K``
    falls below ``floor_ms`` the floor wins — but then fewer than ``K``
    beats fit, so the *effective* ``K`` is re-derived as ``⌊Et / h⌋``
    (min 1) rather than silently reporting the unattainable request.
    ``h`` is additionally capped at ``Et`` so a floor above the tuned
    election timeout can never space heartbeats past the window entirely.
    """
    if et_ms <= 0.0:
        raise ValueError(f"election timeout must be > 0 ms, got {et_ms!r}")
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k!r}")
    if floor_ms <= 0.0:
        raise ValueError(f"floor must be > 0 ms, got {floor_ms!r}")
    h = et_ms / k
    if h >= floor_ms:
        return HeartbeatTuning(h_ms=h, requested_k=k, effective_k=k, floor_clamped=False)
    h = min(floor_ms, et_ms)
    # The 1e-9 slack keeps an exact multiple (Et = m·h up to float error)
    # from rounding the count down to m−1.
    effective = max(1, math.floor(et_ms / h + 1e-9))
    return HeartbeatTuning(h_ms=h, requested_k=k, effective_k=effective, floor_clamped=True)

