"""Delay models: distribution shape, retargeting, positivity."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.net.delay_models import (
    MIN_DELAY_MS,
    ConstantDelay,
    LognormalJitterDelay,
    NormalJitterDelay,
    UniformJitterDelay,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_constant_delay_exact(rng):
    d = ConstantDelay(25.0)
    assert all(d.sample(rng) == 25.0 for _ in range(5))


def test_constant_zero_clamped_to_min(rng):
    d = ConstantDelay(0.0)
    assert d.sample(rng) == MIN_DELAY_MS


def test_negative_base_rejected():
    with pytest.raises(ValueError):
        ConstantDelay(-1.0)
    with pytest.raises(ValueError):
        ConstantDelay(math.inf)


def test_set_base_retargets(rng):
    d = ConstantDelay(10.0)
    d.set_base(50.0)
    assert d.sample(rng) == 50.0
    with pytest.raises(ValueError):
        d.set_base(-5.0)
    with pytest.raises(ValueError):
        d.set_base(math.inf)
    assert d.base_ms == 50.0


def test_uniform_jitter_within_band(rng):
    d = UniformJitterDelay(100.0, 10.0)
    samples = np.array([d.sample(rng) for _ in range(2000)])
    assert samples.min() >= 90.0
    assert samples.max() <= 110.0
    assert abs(samples.mean() - 100.0) < 1.0


def test_uniform_jitter_negative_rejected():
    for jitter in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            UniformJitterDelay(100.0, jitter)


def test_normal_sigma_negative_or_non_finite_rejected():
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            NormalJitterDelay(10.0, sigma)


def test_normal_jitter_statistics(rng):
    d = NormalJitterDelay(100.0, 2.0)
    samples = np.array([d.sample(rng) for _ in range(4000)])
    assert abs(samples.mean() - 100.0) < 0.2
    assert abs(samples.std() - 2.0) < 0.2


def test_normal_zero_sigma_is_deterministic(rng):
    d = NormalJitterDelay(42.0, 0.0)
    assert {d.sample(rng) for _ in range(10)} == {42.0}


def test_normal_never_nonpositive(rng):
    d = NormalJitterDelay(0.5, 5.0)  # frequently would go negative
    samples = [d.sample(rng) for _ in range(2000)]
    assert min(samples) >= MIN_DELAY_MS


def test_lognormal_right_skew(rng):
    d = LognormalJitterDelay(50.0, mu_log=1.0, sigma_log=1.0)
    samples = np.array([d.sample(rng) for _ in range(4000)])
    assert samples.min() >= 50.0
    assert samples.mean() > np.median(samples)  # right skew


def test_lognormal_negative_sigma_rejected():
    bad = [(0.0, -0.1), (0.0, math.nan), (0.0, math.inf)]
    bad += [(mu_log, 1.0) for mu_log in (math.nan, math.inf, -math.inf)]
    for mu_log, sigma_log in bad:
        with pytest.raises(ValueError):
            LognormalJitterDelay(50.0, mu_log, sigma_log)


@given(base=st.floats(min_value=0.0, max_value=1e4), jitter=st.floats(min_value=0.0, max_value=1e3))
def test_uniform_jitter_always_positive(base, jitter):
    d = UniformJitterDelay(base, jitter)
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert d.sample(rng) >= MIN_DELAY_MS


@given(base=st.floats(min_value=0.0, max_value=1e4), sigma=st.floats(min_value=0.0, max_value=1e3))
def test_normal_jitter_always_positive(base, sigma):
    d = NormalJitterDelay(base, sigma)
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert d.sample(rng) >= MIN_DELAY_MS
