"""Packet-loss processes for directed links.

Two processes are provided:

* :class:`BernoulliLoss` — i.i.d. loss with probability ``p`` (netem
  ``loss p%``); this is what the paper's ``tc`` setup uses for the §IV-C2
  staircase, so it is the default everywhere.
* :class:`GilbertElliottLoss` — two-state bursty loss (netem ``loss gemodel``)
  for the robustness tests and the WAN example; real Internet loss is bursty
  (Haq et al., §II-C2), and burstiness is the adversarial case for
  Dynatune's ``K``-heartbeat redundancy, which assumes independence.

Loss rates are mutable so a :class:`~repro.scenarios.steps.SetLoss` step can
replay the staircase pattern.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["LossModel", "NoLoss", "BernoulliLoss", "GilbertElliottLoss"]


def _check_prob(p: float, name: str) -> float:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {p!r}")
    return float(p)


@runtime_checkable
class LossModel(Protocol):
    """Protocol for loss processes."""

    def should_drop(self, rng: np.random.Generator) -> bool:
        """Decide the fate of one packet."""
        ...

    def set_rate(self, p: float) -> None:
        """Retarget the (marginal) loss rate (schedule hook)."""
        ...

    def rate(self) -> float:
        """Current marginal loss probability."""
        ...


class NoLoss:
    """Lossless link (the §IV-B stable-network configuration)."""

    __slots__ = ()

    def should_drop(self, rng: np.random.Generator) -> bool:  # noqa: ARG002
        return False

    def set_rate(self, p: float) -> None:
        if p != 0.0:
            raise ValueError("NoLoss cannot be retargeted; use BernoulliLoss")

    def rate(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NoLoss()"


class BernoulliLoss:
    """Independent loss with probability ``p`` per packet."""

    __slots__ = ("p",)

    def __init__(self, p: float = 0.0) -> None:
        self.p = _check_prob(p, "loss probability")

    def should_drop(self, rng: np.random.Generator) -> bool:
        if self.p <= 0.0:
            return False
        if self.p >= 1.0:
            return True
        return bool(rng.random() < self.p)

    def set_rate(self, p: float) -> None:
        self.p = _check_prob(p, "loss probability")

    def rate(self) -> float:
        return self.p

    def __repr__(self) -> str:
        return f"BernoulliLoss(p={self.p})"


class GilbertElliottLoss:
    """Two-state Markov (Gilbert–Elliott) bursty loss.

    States: *good* (loss prob ``loss_good``, usually ~0) and *bad* (loss
    prob ``loss_bad``, usually high).  Transition probabilities are
    evaluated per packet.  The marginal loss rate is::

        pi_bad  = p_gb / (p_gb + p_bg)
        rate    = (1 - pi_bad) * loss_good + pi_bad * loss_bad

    ``set_rate`` rescales ``p_gb`` to hit a requested marginal rate while
    keeping the mean burst length (``1/p_bg``) fixed, so schedules can sweep
    the marginal rate of a bursty process just like a Bernoulli one.
    """

    __slots__ = ("p_gb", "p_bg", "loss_good", "loss_bad", "_bad")

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        # Only tests build this model until ROADMAP 3 wires it or drops it.
        # repolint: disable=param-knob-liveness
        loss_good: float = 0.0,
        # repolint: disable=param-knob-liveness
        loss_bad: float = 1.0,
    ) -> None:
        self.p_gb = _check_prob(p_gb, "p_gb")
        self.p_bg = _check_prob(p_bg, "p_bg")
        if self.p_bg <= 0.0:
            raise ValueError("p_bg must be > 0 or the bad state is absorbing")
        self.loss_good = _check_prob(loss_good, "loss_good")
        self.loss_bad = _check_prob(loss_bad, "loss_bad")
        self._bad = False

    def should_drop(self, rng: np.random.Generator) -> bool:
        # Transition first, then sample loss in the (possibly new) state.
        if self._bad:
            if rng.random() < self.p_bg:
                self._bad = False
        else:
            if rng.random() < self.p_gb:
                self._bad = True
        p = self.loss_bad if self._bad else self.loss_good
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return bool(rng.random() < p)

    def rate(self) -> float:
        denom = self.p_gb + self.p_bg
        pi_bad = self.p_gb / denom if denom > 0 else 0.0
        return (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad

    def set_rate(self, p: float) -> None:
        """Rescale the transition rates so the marginal rate equals ``p``.

        Solves ``pi_bad`` from ``p = (1-pi)*lg + pi*lb`` and retargets
        ``p_gb = pi * p_bg / (1 - pi)``.  If the required ``p_gb`` exceeds
        1 (very high targets), ``p_gb`` is pinned at 1 and ``p_bg`` is
        reduced instead — the marginal is hit exactly at the cost of a
        longer mean burst.  Requires ``loss_good <= p < loss_bad``.
        """
        p = _check_prob(p, "marginal rate")
        span = self.loss_bad - self.loss_good
        if span <= 0.0:
            raise ValueError("loss_bad must exceed loss_good to retarget rate")
        pi = (p - self.loss_good) / span
        if not (0.0 <= pi < 1.0):
            raise ValueError(
                f"requested rate {p} outside achievable "
                f"[{self.loss_good}, {self.loss_bad})"
            )
        if pi == 0.0:
            self.p_gb = 0.0
            return
        required = pi * self.p_bg / (1.0 - pi)
        if required <= 1.0:
            self.p_gb = required
        else:
            self.p_gb = 1.0
            self.p_bg = (1.0 - pi) / pi  # pi = p_gb/(p_gb+p_bg) with p_gb=1

    @property
    def in_bad_state(self) -> bool:
        return self._bad

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(p_gb={self.p_gb:.4g}, p_bg={self.p_bg:.4g}, "
            f"lg={self.loss_good}, lb={self.loss_bad})"
        )
