"""Measurement extraction: episodes, leaderless intervals, rt matrices."""

import math

import numpy as np
import pytest

from repro.cluster.measurements import (
    LEADER_FAILURE_KIND,
    extract_failure_episodes,
    kth_smallest_series,
    leaderless_intervals,
    randomized_timeout_matrix,
    total_interval_length,
)
from repro.net.topology import ClockModel
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceLog


def synthetic_trace():
    t = TraceLog()
    t.record(0.0, "n1", "become_leader", term=1)
    t.record(100.0, "n1", LEADER_FAILURE_KIND)
    t.record(150.0, "n2", "election_timeout", randomized_timeout_ms=42.0)
    t.record(160.0, "n3", "election_timeout", randomized_timeout_ms=55.0)
    t.record(170.0, "n4", "election_timeout", randomized_timeout_ms=60.0)
    t.record(220.0, "n2", "become_leader", term=2)
    return t


def test_episode_extraction_basic():
    eps = extract_failure_episodes(synthetic_trace(), cluster_size=5)
    assert len(eps) == 1
    e = eps[0]
    assert e.failed_leader == "n1"
    assert e.detection_latency_ms == pytest.approx(50.0)
    assert e.ots_ms == pytest.approx(120.0)
    assert e.election_latency_ms == pytest.approx(70.0)
    assert e.detector == "n2"
    assert e.new_leader == "n2"
    assert e.randomized_timeout_at_detection_ms == 42.0
    assert e.resolved


def test_majority_detection_is_third_distinct_node():
    eps = extract_failure_episodes(synthetic_trace(), cluster_size=5)
    # quorum of 5 = 3; the dead leader counts as "lost" plus 2 detectors.
    assert eps[0].majority_detection_latency_ms == pytest.approx(60.0)


def test_unresolved_episode():
    t = TraceLog()
    t.record(0.0, "n1", "become_leader", term=1)
    t.record(100.0, "n1", LEADER_FAILURE_KIND)
    eps = extract_failure_episodes(t, cluster_size=3)
    assert len(eps) == 1
    assert not eps[0].resolved
    assert eps[0].ots_ms is None
    assert eps[0].election_latency_ms is None


def test_episodes_do_not_bleed_across_failures():
    t = synthetic_trace()
    t.record(1000.0, "n2", LEADER_FAILURE_KIND)
    t.record(1100.0, "n3", "election_timeout", randomized_timeout_ms=10.0)
    t.record(1200.0, "n3", "become_leader", term=3)
    eps = extract_failure_episodes(t, cluster_size=5)
    assert len(eps) == 2
    assert eps[0].new_leader == "n2"
    assert eps[1].detection_latency_ms == pytest.approx(100.0)
    assert eps[1].new_leader == "n3"


def test_leader_own_records_excluded():
    t = TraceLog()
    t.record(100.0, "n1", LEADER_FAILURE_KIND)
    # the failed leader itself timing out later must not count as detection
    t.record(150.0, "n1", "election_timeout")
    t.record(180.0, "n2", "election_timeout")
    eps = extract_failure_episodes(t, cluster_size=3)
    assert eps[0].detector == "n2"


def test_clock_model_applied_per_node():
    clock = ClockModel(
        offset_ms={"n1": 0.0, "n2": +30.0},
        read_noise_sigma_ms=0.0,
        _rng=np.random.default_rng(0),
    )
    t = TraceLog()
    t.record(100.0, "n1", LEADER_FAILURE_KIND)
    t.record(150.0, "n2", "election_timeout")
    t.record(200.0, "n2", "become_leader", term=2)
    eps = extract_failure_episodes(t, clock=clock, cluster_size=3)
    # n2's clock runs 30ms ahead: measured detection inflated by 30ms.
    assert eps[0].detection_latency_ms == pytest.approx(80.0)


# -- leaderless intervals ------------------------------------------------- #


def test_leaderless_intervals_basic():
    t = TraceLog()
    t.record(100.0, "n1", "become_leader", term=1)
    t.record(500.0, "n1", "step_down", term=1)
    t.record(800.0, "n2", "become_leader", term=2)
    iv = leaderless_intervals(t, t_start=0.0, t_end=1000.0)
    assert iv == [(0.0, 100.0), (500.0, 800.0)]
    assert total_interval_length(iv) == pytest.approx(400.0)


def test_leaderless_interval_open_at_end():
    t = TraceLog()
    t.record(100.0, "n1", "become_leader", term=1)
    t.record(300.0, "n1", "quorum_lost", term=1)
    iv = leaderless_intervals(t, t_start=0.0, t_end=1000.0)
    assert iv[-1] == (300.0, 1000.0)


def test_leaderless_takeover_without_gap():
    t = TraceLog()
    t.record(100.0, "n1", "become_leader", term=1)
    t.record(400.0, "n2", "become_leader", term=2)  # supersedes
    t.record(500.0, "n1", "step_down", term=1)  # old leader learns late
    iv = leaderless_intervals(t, t_start=0.0, t_end=1000.0)
    assert iv == [(0.0, 100.0)]  # no gap at the handover


def test_stall_pause_not_a_leadership_end():
    t = TraceLog()
    t.record(100.0, "n1", "become_leader", term=1)
    t.record(200.0, "n1", "stall_pause")
    t.record(210.0, "n1", "process_paused")
    iv = leaderless_intervals(t, t_start=0.0, t_end=1000.0)
    assert iv == [(0.0, 100.0)]


def test_harness_kill_is_a_leadership_end():
    t = TraceLog()
    t.record(100.0, "n1", "become_leader", term=1)
    t.record(200.0, "n1", LEADER_FAILURE_KIND)
    t.record(300.0, "n2", "become_leader", term=2)
    iv = leaderless_intervals(t, t_start=0.0, t_end=400.0)
    assert iv == [(0.0, 100.0), (200.0, 300.0)]


def test_leaderless_intervals_clipped_to_window_start():
    t = TraceLog()
    t.record(100.0, "n1", "become_leader", term=1)
    t.record(150.0, "n1", "step_down", term=1)
    t.record(180.0, "n2", "become_leader", term=2)  # gap closed before t_start
    t.record(200.0, "n2", "step_down", term=2)
    t.record(500.0, "n3", "become_leader", term=3)
    iv = leaderless_intervals(t, t_start=300.0, t_end=1000.0)
    assert iv == [(300.0, 500.0)]


def test_non_leader_events_ignored():
    t = TraceLog()
    t.record(100.0, "n1", "become_leader", term=1)
    t.record(200.0, "n2", "step_down", term=0)  # not the leader
    iv = leaderless_intervals(t, t_start=0.0, t_end=400.0)
    assert iv == [(0.0, 100.0)]


# -- randomizedTimeout matrix ----------------------------------------------- #


def test_randomized_timeout_matrix_shape_and_values():
    t = TraceLog()
    for sec in (1000.0, 2000.0):
        for node, val in (("n1", 10.0), ("n2", 20.0)):
            t.record(sec, node, "rt_sample", value=val + sec)
    times, matrix = randomized_timeout_matrix(t, ["n1", "n2"])
    assert list(times) == [1000.0, 2000.0]
    assert matrix.shape == (2, 2)
    assert matrix[0, 0] == 1010.0
    assert matrix[1, 1] == 2020.0


def test_randomized_timeout_matrix_missing_samples_nan():
    t = TraceLog()
    t.record(1000.0, "n1", "rt_sample", value=5.0)
    times, matrix = randomized_timeout_matrix(t, ["n1", "n2"])
    assert math.isnan(matrix[0, 1])


def test_kth_smallest_series():
    vals = np.array([[5.0, 1.0, 3.0], [np.nan, 2.0, 4.0]])
    assert kth_smallest_series(vals, 1).tolist() == [1.0, 2.0]
    k2 = kth_smallest_series(vals, 2)
    assert k2[0] == 3.0 and k2[1] == 4.0
    k3 = kth_smallest_series(vals, 3)
    assert k3[0] == 5.0 and math.isnan(k3[1])  # only 2 finite values in row 1


def test_kth_smallest_validation():
    with pytest.raises(ValueError):
        kth_smallest_series(np.zeros((1, 1)), 0)
