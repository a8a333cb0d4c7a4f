"""Summary statistics with bootstrap confidence intervals."""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["SummaryStats", "summarize", "bootstrap_mean_ci"]


@dataclasses.dataclass(slots=True, frozen=True)
class SummaryStats:
    """Standard location/percentile summary of one sample."""

    n: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.1f} std={self.std:.1f} "
            f"min={self.minimum:.1f} p50={self.p50:.1f} p95={self.p95:.1f} "
            f"p99={self.p99:.1f} max={self.maximum:.1f}"
        )


def summarize(values: list[float] | np.ndarray) -> SummaryStats:
    """Vectorised summary of a sample.

    Raises:
        ValueError: on an empty sample — an experiment that produced no
            observations is a bug, not a zero.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return SummaryStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        p50=float(p50),
        p95=float(p95),
        p99=float(p99),
        maximum=float(arr.max()),
    )


#: :func:`bootstrap_mean_ci`'s confidence level, resample count and seed.
BOOTSTRAP_CONFIDENCE = 0.95
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def bootstrap_mean_ci(values: list[float] | np.ndarray) -> tuple[float, float]:
    """Percentile-bootstrap CI for the mean (fully vectorised)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    idx = rng.integers(0, arr.size, size=(BOOTSTRAP_RESAMPLES, arr.size))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - BOOTSTRAP_CONFIDENCE) / 2.0
    lo, hi = np.percentile(means, [100 * alpha, 100 * (1 - alpha)])
    return float(lo), float(hi)
