"""The §III design ablations: one grid run, each study gated on its ordering."""

import math

import pytest

from repro.experiments import ablations, grid


@pytest.fixture(scope="module")
def points():
    return grid.run(ablations.GRID)


def _study(points, study):
    return [p for p in points if p.study == study]


def _by_label(points, study):
    return {p.label: p.metrics for p in _study(points, study)}


def _by_value(points, study):
    return {p.value: p.metrics for p in _study(points, study)}


@pytest.fixture(scope="module")
def min_list_points(points):
    return _study(points, "min_list_size")


@pytest.fixture(scope="module")
def prevote_metrics(points):
    return _by_label(points, "prevote")


@pytest.fixture(scope="module")
def window_lag(points):
    return {v: m["adaptation_lag_ms"] for v, m in _by_value(points, "window").items()}


def test_ablation_point_structure(min_list_points):
    assert [p.value for p in min_list_points] == [2.0, 10.0, 50.0, 100.0]
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
    # Larger windows adapt more slowly to an RTT drop: the stale high
    # samples take the whole window to slide out.
    assert window_lag[1000.0] > 5.0 * window_lag[30.0]


def test_safety_factor_sweep(points):
    by_s = _by_value(points, "safety_factor")
    # The tuned Et widens monotonically with s (Et = mu + s*sigma).
    ets = [by_s[s]["mean_tuned_et_ms"] for s in (0.0, 1.0, 2.0, 4.0)]
    assert ets == sorted(ets)
    assert ets[-1] > ets[0] + 15.0
    # Detection slows accordingly (allow sample noise between neighbours).
    assert by_s[4.0]["mean_detection_ms"] > by_s[0.0]["mean_detection_ms"]
    # Every configuration still resolves every failure.
    for m in by_s.values():
        assert m["resolved_episodes"] > 0


def test_arrival_probability_sweep(points):
    by_x = _by_value(points, "arrival_probability")
    # Higher x -> more redundancy -> higher heartbeat rate...
    rates = [by_x[x]["leader_heartbeats_per_s"] for x in (0.9, 0.99, 0.999, 0.9999)]
    assert rates == sorted(rates)
    # ...and fewer missed-window fallbacks.
    assert by_x[0.9999]["fallbacks"] < by_x[0.9]["fallbacks"]
    # No configuration loses the leader to loss-induced elections.
    for m in by_x.values():
        assert m["unnecessary_elections"] == 0.0


def test_fallback_ablation(points):
    m = _by_label(points, "fallback")
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


def test_a_point_reruns_alone(points):
    alone = ablations.run_one(
        ablations.AblationConfig(system="dynatune", study="window", value=100.0)
    )
    assert alone == grid.find(points, study="window", value=100.0)


def test_config_is_dynatune_only():
    with pytest.raises(ValueError):
        ablations.AblationConfig(system="raft")
