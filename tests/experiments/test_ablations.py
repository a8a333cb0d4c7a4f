"""The §III design ablations: one sweep each, gated on its ordering.

Where two tests gate the same sweep they share one module-scoped run.
"""

import math

import pytest

from repro.experiments import ablations


def _by_label(points):
    return {p.label: p.metrics for p in points}


@pytest.fixture(scope="module")
def min_list_points():
    return ablations.min_list_size_sweep(sizes=(2, 10, 100))


@pytest.fixture(scope="module")
def prevote_metrics():
    return _by_label(ablations.prevote_ablation(dwell_ms=6_000.0))


@pytest.fixture(scope="module")
def window_lag():
    pts = ablations.window_sweep(windows=(30, 1000))
    return {p.value: p.metrics["adaptation_lag_ms"] for p in pts}


def test_ablation_point_structure(min_list_points):
    assert [p.value for p in min_list_points] == [2.0, 10.0, 100.0]
    for p in min_list_points:
        assert p.metrics["all_tuned"] == 1.0
        assert p.metrics["time_to_tuned_ms"] > 0


def test_min_list_size_sweep(min_list_points):
    by_m = {p.value: p.metrics for p in min_list_points}
    # Warm-up time grows with minListSize.
    assert by_m[100.0]["time_to_tuned_ms"] > by_m[2.0]["time_to_tuned_ms"]


def test_prevote_ablation_labels(prevote_metrics):
    assert set(prevote_metrics) == {"prevote-on", "prevote-off"}


def test_prevote_ablation(prevote_metrics):
    m = prevote_metrics
    # With pre-vote: the spike causes zero OTS (Fig. 6b).  Without it, the
    # first false detection deposes the leader.
    assert m["prevote-on"]["ots_ms"] == 0.0
    assert m["prevote-on"]["unnecessary_elections"] == 0.0
    assert m["prevote-off"]["unnecessary_elections"] > 0.0
    assert m["prevote-off"]["leader_changes"] > m["prevote-on"]["leader_changes"]


def test_window_sweep_converges(window_lag):
    assert window_lag[30.0] < 120_000.0
    assert not math.isinf(window_lag[1000.0])


def test_window_sweep(window_lag):
    # Larger windows adapt more slowly to an RTT step.
    assert window_lag[1000.0] > window_lag[30.0]


def test_safety_factor_sweep():
    points = ablations.safety_factor_sweep(n_failures=6)
    by_s = {p.value: p.metrics for p in points}
    # The tuned Et widens monotonically with s (Et = mu + s*sigma).
    ets = [by_s[s]["mean_tuned_et_ms"] for s in (0.0, 1.0, 2.0, 4.0)]
    assert ets == sorted(ets)
    assert ets[-1] > ets[0] + 15.0
    # Detection slows accordingly (allow sample noise between neighbours).
    assert by_s[4.0]["mean_detection_ms"] > by_s[0.0]["mean_detection_ms"]
    # Every configuration still resolves every failure.
    for p in points:
        assert p.metrics["resolved_episodes"] > 0


def test_arrival_probability_sweep():
    points = ablations.arrival_probability_sweep(duration_ms=20_000.0)
    by_x = {p.value: p.metrics for p in points}
    # Higher x -> more redundancy -> higher heartbeat rate...
    rates = [by_x[x]["leader_heartbeats_per_s"] for x in (0.9, 0.99, 0.999, 0.9999)]
    assert rates == sorted(rates)
    # ...and fewer missed-window fallbacks.
    assert by_x[0.9999]["fallbacks"] < by_x[0.9]["fallbacks"]
    # No configuration loses the leader to loss-induced elections.
    for p in points:
        assert p.metrics["unnecessary_elections"] == 0.0


def test_fallback_ablation():
    m = _by_label(ablations.fallback_ablation())
    # The discard rule costs re-warm-up: more untuned follower-time.
    assert (
        m["fallback-on"]["untuned_follower_seconds"]
        > m["fallback-off"]["untuned_follower_seconds"]
    )
    # The rule actually fires (measurements are discarded on timeouts).
    assert m["fallback-on"]["fallbacks"] > 0
    assert m["fallback-off"]["fallbacks"] == 0
    # Neither variant loses availability here (pre-vote still protects).
    assert m["fallback-on"]["ots_ms"] == 0.0
    assert m["fallback-off"]["ots_ms"] == 0.0
