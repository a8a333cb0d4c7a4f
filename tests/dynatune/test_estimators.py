"""The RTT window of PathMeasurement: incremental ``estimate()`` vs the
numpy reference ``window_mean_std`` — unit + properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dynatune.measurement import PathMeasurement, window_mean_std


def _window(capacity: int, vals=()) -> PathMeasurement:
    """A measurement whose RTT window holds ``vals`` (one heartbeat each)."""
    m = PathMeasurement(min_list_size=1, max_list_size=capacity)
    for seq, v in enumerate(vals, 1):
        m.record(seq, v)
    return m


def _mean_std(m: PathMeasurement) -> tuple[float, float]:
    mu, sigma, _ = m.estimate()
    return mu, sigma


def test_reference_empty():
    assert window_mean_std([]) == (0.0, 0.0)


def test_reference_single():
    mu, sigma = window_mean_std([5.0])
    assert mu == 5.0 and sigma == 0.0


def test_reference_known_values():
    mu, sigma = window_mean_std([1.0, 2.0, 3.0, 4.0])
    assert mu == pytest.approx(2.5)
    assert sigma == pytest.approx(np.std([1, 2, 3, 4]))


def test_windowed_empty():
    m = _window(10)
    assert m.rtt_count == 0
    assert m.rtts() == []
    assert _mean_std(m) == (0.0, 0.0)


def test_windowed_capacity_validation():
    with pytest.raises(ValueError):
        PathMeasurement(min_list_size=1, max_list_size=0)


def test_windowed_rejects_nonfinite():
    m = _window(4)
    with pytest.raises(ValueError):
        m.record(1, float("nan"))
    with pytest.raises(ValueError):
        m.record(2, float("inf"))
    assert m.rtt_count == 0


def test_windowed_matches_reference_before_eviction():
    vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    m = _window(100, vals)
    assert _mean_std(m) == pytest.approx(window_mean_std(vals))


def test_windowed_evicts_oldest():
    m = _window(3, (1.0, 2.0, 3.0, 4.0))
    assert m.rtt_count == 3
    assert m.rtts() == [2.0, 3.0, 4.0]
    assert _mean_std(m)[0] == pytest.approx(3.0)


def test_windowed_reset():
    m = _window(3, (10.0,))
    m.reset()
    assert m.rtt_count == 0
    assert _mean_std(m) == (0.0, 0.0)
    m.record(1, 2.0)
    assert _mean_std(m)[0] == 2.0


def test_windowed_single_sample_zero_std():
    assert _mean_std(_window(5, (123.456,)))[1] == 0.0


def test_windowed_constant_series_zero_std():
    m = _window(10, [100.0] * 100)
    assert _mean_std(m)[1] == pytest.approx(0.0, abs=1e-9)


def test_values_order_oldest_first_across_wrap():
    m = _window(4, [float(v) for v in range(10)])
    assert m.rtts() == [6.0, 7.0, 8.0, 9.0]


def _assert_drift_bounded(capacity: int) -> None:
    rng = np.random.default_rng(0)
    vals = rng.normal(100.0, 3.0, size=10_000)
    m = _window(capacity, [float(v) for v in vals])
    ref_mu, ref_sigma = window_mean_std(vals[-capacity:])
    assert window_mean_std(m.rtts()) == (ref_mu, ref_sigma)
    mu, sigma = _mean_std(m)
    assert mu == pytest.approx(ref_mu, rel=1e-9)
    assert sigma == pytest.approx(ref_sigma, rel=1e-6)


def test_resync_bounds_drift():
    """After many samples (incl. the periodic exact recompute) the running
    moments still match a fresh numpy computation."""
    _assert_drift_bounded(50)  # small window: resync on every sample


def test_resync_bounds_drift_large_window():
    _assert_drift_bounded(1000)  # one resync per window turnover


def test_resync_reanchors_after_a_magnitude_shift():
    """The offset is the first sample after a reset; once the window has
    moved orders of magnitude away from it, the resync re-anchors it and
    the tiny spread of the new regime is still resolved."""
    rng = np.random.default_rng(1)
    far = [float(v) for v in rng.normal(1e6, 1e3, size=200)]
    near = [float(v) for v in rng.normal(1.0, 1e-3, size=300)]
    m = _window(100, far + near)
    mu, sigma = _mean_std(m)
    ref_mu, ref_sigma = window_mean_std(near[-100:])
    assert mu == pytest.approx(ref_mu, rel=1e-9)
    assert sigma == pytest.approx(ref_sigma, rel=1e-6)


@settings(max_examples=200)
@given(
    vals=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60
    ),
    capacity=st.integers(min_value=1, max_value=20),
)
def test_windowed_equals_numpy_reference(vals, capacity):
    m = _window(capacity, vals)
    assert m.rtts() == vals[-capacity:]
    ref_mu, ref_sigma = window_mean_std(m.rtts())
    mu, sigma = _mean_std(m)
    assert mu == pytest.approx(ref_mu, rel=1e-9, abs=1e-9)
    assert sigma == pytest.approx(ref_sigma, rel=1e-6, abs=1e-6)


@settings(max_examples=100)
@given(
    vals=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=2, max_size=40)
)
def test_std_nonnegative_and_bounded_by_range(vals):
    sigma = _mean_std(_window(100, vals))[1]
    assert sigma >= 0.0
    assert sigma <= (max(vals) - min(vals)) + 1e-9
