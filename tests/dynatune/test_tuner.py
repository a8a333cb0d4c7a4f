"""Tuning formulas (§III-D): Et, K, h — unit + properties."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dynatune.config import ET_FLOOR_MS
from repro.dynatune.tuner import (
    required_heartbeats,
    tune_election_timeout,
    tune_heartbeat,
)


# -- Et = mu + s*sigma ----------------------------------------------------- #


def test_et_formula():
    assert tune_election_timeout(100.0, 5.0, safety_factor=2.0) == 110.0


def test_et_zero_sigma():
    assert tune_election_timeout(100.0, 0.0, safety_factor=2.0) == 100.0


def test_et_floor():
    assert tune_election_timeout(0.0, 0.0, safety_factor=2.0) == ET_FLOOR_MS


def test_et_validation():
    with pytest.raises(ValueError):
        tune_election_timeout(-1.0, 0.0, safety_factor=2.0)
    with pytest.raises(ValueError):
        tune_election_timeout(1.0, -1.0, safety_factor=2.0)
    with pytest.raises(ValueError):
        tune_election_timeout(1.0, 1.0, safety_factor=-0.1)


# -- K = ceil(log_p(1-x)) -------------------------------------------------- #


def test_k_zero_loss_is_one():
    assert required_heartbeats(0.0, 0.999) == 1


def test_k_total_loss_clamped():
    assert required_heartbeats(1.0, 0.999, k_max=50) == 50


def test_k_paper_values():
    # x = 0.999: p=0.3 -> ceil(log(0.001)/log(0.3)) = ceil(5.74) = 6
    assert required_heartbeats(0.30, 0.999) == 6
    assert required_heartbeats(0.10, 0.999) == 3
    assert required_heartbeats(0.05, 0.999) == 3
    assert required_heartbeats(0.20, 0.999) == 5
    # tiny loss: a single heartbeat suffices
    assert required_heartbeats(0.001, 0.999) == 1


def test_k_validation():
    with pytest.raises(ValueError):
        required_heartbeats(0.5, 0.0)
    with pytest.raises(ValueError):
        required_heartbeats(0.5, 1.0)
    with pytest.raises(ValueError):
        required_heartbeats(-0.1, 0.999)
    with pytest.raises(ValueError):
        required_heartbeats(1.1, 0.999)


# -- h = Et / K ----------------------------------------------------------- #


def test_h_formula():
    assert tune_heartbeat(600.0, 6).h_ms == 100.0


def test_h_floor():
    assert tune_heartbeat(10.0, 100, floor_ms=1.0).h_ms == 1.0


def test_h_validation():
    with pytest.raises(ValueError):
        tune_heartbeat(0.0, 1)
    with pytest.raises(ValueError):
        tune_heartbeat(100.0, 0)


# -- properties ------------------------------------------------------------ #


@settings(max_examples=300)
@given(
    p=st.floats(min_value=0.0, max_value=0.999),
    x=st.floats(min_value=0.5, max_value=0.9999),
)
def test_k_achieves_arrival_probability(p, x):
    """The defining requirement: 1 - p^K >= x (unless clamped at k_max)."""
    k = required_heartbeats(p, x, k_max=10_000)
    assert 1.0 - p**k >= x - 1e-12


@settings(max_examples=300)
@given(
    p=st.floats(min_value=0.001, max_value=0.999),
    x=st.floats(min_value=0.5, max_value=0.9999),
)
def test_k_is_minimal(p, x):
    k = required_heartbeats(p, x, k_max=10_000)
    if k > 1:
        assert 1.0 - p ** (k - 1) < x + 1e-12


@settings(max_examples=200)
@given(
    p1=st.floats(min_value=0.0, max_value=0.99),
    p2=st.floats(min_value=0.0, max_value=0.99),
)
def test_k_monotone_in_loss(p1, p2):
    """More loss never needs fewer heartbeats."""
    lo, hi = sorted((p1, p2))
    assert required_heartbeats(lo, 0.999) <= required_heartbeats(hi, 0.999)


@settings(max_examples=200)
@given(
    mu=st.floats(min_value=0.0, max_value=1e4),
    sigma=st.floats(min_value=0.0, max_value=1e3),
    s=st.floats(min_value=0.0, max_value=10.0),
)
def test_et_monotone_in_inputs(mu, sigma, s):
    et = tune_election_timeout(mu, sigma, safety_factor=s)
    assert et >= max(mu, ET_FLOOR_MS) - 1e-9
    bigger = tune_election_timeout(mu + 1.0, sigma, safety_factor=s)
    assert bigger >= et


@settings(max_examples=200)
@given(
    et=st.floats(min_value=1.0, max_value=1e5),
    k=st.integers(min_value=1, max_value=1000),
)
def test_h_times_k_covers_et(et, k):
    """K heartbeats at interval h span (almost exactly) one Et window."""
    h = tune_heartbeat(et, k, floor_ms=1e-6).h_ms
    assert h * k == pytest.approx(et) or h == 1e-6  # unless floored


@settings(max_examples=100)
@given(x=st.floats(min_value=0.9, max_value=0.9999))
def test_k_at_boundary_loss_rates(x):
    assert required_heartbeats(0.0, x) == 1
    k_cap = 7
    assert required_heartbeats(1.0, x, k_max=k_cap) == k_cap


def test_k_exact_boundary_is_not_overshot():
    # p = 0.1, x = 0.999: p^3 = 1e-3 exactly -> K = 3, not 4.
    assert required_heartbeats(0.1, 0.999) == 3
    assert math.isclose(1 - 0.1**3, 0.999)


# -- tune_heartbeat metadata (floor clamp must not break K·h <= Et) -------- #


def test_tune_heartbeat_unclamped_reports_requested_k():
    t = tune_heartbeat(600.0, 6, floor_ms=1.0)
    assert t.h_ms == 100.0
    assert t.requested_k == 6
    assert t.effective_k == 6
    assert not t.floor_clamped


def test_tune_heartbeat_floor_rederives_effective_k():
    # Et/K = 0.2 ms < floor 1 ms: only 10 one-ms beats fit in 10 ms.
    t = tune_heartbeat(10.0, 50, floor_ms=1.0)
    assert t.h_ms == 1.0
    assert t.floor_clamped
    assert t.effective_k == 10
    assert t.effective_k * t.h_ms <= 10.0 + 1e-9


def test_tune_heartbeat_floor_above_et_caps_h_at_et():
    # A floor larger than Et must not space heartbeats past the window.
    t = tune_heartbeat(5.0, 3, floor_ms=20.0)
    assert t.h_ms == 5.0
    assert t.effective_k == 1
    assert t.floor_clamped


def test_tune_heartbeat_validation():
    with pytest.raises(ValueError):
        tune_heartbeat(100.0, 1, floor_ms=0.0)


@settings(max_examples=300)
@given(
    et=st.floats(min_value=0.5, max_value=1e5),
    k=st.integers(min_value=1, max_value=200),
    floor=st.floats(min_value=1e-3, max_value=1e3),
)
def test_heartbeats_always_fit_inside_et(et, k, floor):
    """The §III-D2 guarantee: effective_k heartbeats at h fit in one Et."""
    t = tune_heartbeat(et, k, floor_ms=floor)
    assert t.h_ms <= et + 1e-9
    assert t.effective_k >= 1
    assert t.effective_k * t.h_ms <= et * (1.0 + 1e-9)
    if not t.floor_clamped:
        assert t.effective_k == k
