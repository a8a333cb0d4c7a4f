"""One-way delay models for directed links.

``tc``/netem expresses link impairment as *delay distributions*; these
classes are the in-simulator equivalents.  All models sample a one-way delay
in **milliseconds**.  A link's *base* one-way delay is ``rtt/2`` and is held
by the model as a mutable attribute so that a :class:`~repro.scenarios.
steps.SetRtt` step can retarget it mid-run exactly like ``tc qdisc change``.

Every model guarantees a strictly positive sample (clamped at
``min_delay``), because a zero or negative network delay would let a message
arrive before it was sent and break event causality.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "UniformJitterDelay",
    "NormalJitterDelay",
    "LognormalJitterDelay",
]

#: Smallest one-way delay any model will return (ms).  Keeps causality and
#: mirrors the fact that even loopback traffic is not instantaneous.
MIN_DELAY_MS: float = 1e-3


@runtime_checkable
class DelayModel(Protocol):
    """Protocol for one-way delay samplers."""

    base_ms: float

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one one-way delay (ms)."""
        ...

    def set_base(self, base_ms: float) -> None:
        """Retarget the base one-way delay (schedule hook)."""
        ...


class _BaseDelay:
    """Shared plumbing: base-delay storage and validation."""

    __slots__ = ("base_ms",)

    def __init__(self, base_ms: float) -> None:
        if not (0.0 <= base_ms < math.inf):  # also rejects NaN
            raise ValueError(f"base delay must be finite and >= 0 ms, got {base_ms!r}")
        self.base_ms = float(base_ms)

    def set_base(self, base_ms: float) -> None:
        if not (0.0 <= base_ms < math.inf):  # also rejects NaN
            raise ValueError(f"base delay must be finite and >= 0 ms, got {base_ms!r}")
        self.base_ms = float(base_ms)


class ConstantDelay(_BaseDelay):
    """Deterministic delay: every message takes exactly ``base_ms``."""

    def sample(self, rng: np.random.Generator) -> float:  # noqa: ARG002 - protocol
        return max(self.base_ms, MIN_DELAY_MS)

    def __repr__(self) -> str:
        return f"ConstantDelay({self.base_ms} ms)"


class UniformJitterDelay(_BaseDelay):
    """``base ± jitter`` uniform — netem's default jitter distribution."""

    __slots__ = ("jitter_ms",)

    def __init__(self, base_ms: float, jitter_ms: float) -> None:
        super().__init__(base_ms)
        if not (0.0 <= jitter_ms < math.inf):  # also rejects NaN
            raise ValueError(f"jitter must be finite and >= 0 ms, got {jitter_ms!r}")
        self.jitter_ms = float(jitter_ms)

    def sample(self, rng: np.random.Generator) -> float:
        d = self.base_ms + rng.uniform(-self.jitter_ms, self.jitter_ms)
        return max(d, MIN_DELAY_MS)

    def __repr__(self) -> str:
        return f"UniformJitterDelay({self.base_ms} ± {self.jitter_ms} ms)"


class NormalJitterDelay(_BaseDelay):
    """Gaussian jitter around the base delay (netem ``distribution normal``).

    This is the default model in the experiment configs: the paper injects
    no *intentional* jitter (§IV-B) but a real kernel/bridge path always has
    a small variance, and Dynatune's ``σ_RTT`` safety term exists precisely
    because of it.
    """

    __slots__ = ("sigma_ms",)

    def __init__(self, base_ms: float, sigma_ms: float) -> None:
        super().__init__(base_ms)
        if not (0.0 <= sigma_ms < math.inf):  # also rejects NaN
            raise ValueError(f"sigma must be finite and >= 0 ms, got {sigma_ms!r}")
        self.sigma_ms = float(sigma_ms)

    def sample(self, rng: np.random.Generator) -> float:
        # sigma * standard_normal() is bit-identical to normal(0, sigma)
        # (that is exactly how Generator.normal derives the value) but
        # skips the loc/scale dispatch overhead — this draw happens once
        # per simulated message.
        if self.sigma_ms:
            d = self.base_ms + self.sigma_ms * rng.standard_normal()
        else:
            d = self.base_ms
        return max(d, MIN_DELAY_MS)

    def __repr__(self) -> str:
        return f"NormalJitterDelay({self.base_ms} ms, sigma={self.sigma_ms} ms)"


class LognormalJitterDelay(_BaseDelay):
    """Heavy-tailed delay: ``base + lognormal`` excess.

    Internet paths show right-skewed delay with occasional large excursions
    (Høiland-Jørgensen et al., cited in §II-C1).  Fig. 6 puts it on every
    link as the testbed's noise; the excess has median ``exp(mu_log)`` ms
    and shape ``sigma_log``.
    """

    __slots__ = ("mu_log", "sigma_log")

    def __init__(self, base_ms: float, mu_log: float, sigma_log: float) -> None:
        super().__init__(base_ms)
        if not (0.0 <= sigma_log < math.inf):  # also rejects NaN
            raise ValueError(f"sigma_log must be finite and >= 0, got {sigma_log!r}")
        if not math.isfinite(mu_log):
            raise ValueError(f"mu_log must be finite, got {mu_log!r}")
        self.mu_log = float(mu_log)
        self.sigma_log = float(sigma_log)

    def sample(self, rng: np.random.Generator) -> float:
        excess = rng.lognormal(self.mu_log, self.sigma_log)
        return max(self.base_ms + excess, MIN_DELAY_MS)

    def __repr__(self) -> str:
        return (
            f"LognormalJitterDelay({self.base_ms} ms + LN({self.mu_log}, "
            f"{self.sigma_log}))"
        )
