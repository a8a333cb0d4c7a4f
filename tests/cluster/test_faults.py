"""Fault injection: pause_for and the crash/recover helpers."""

import numpy as np
import pytest

from repro.cluster.faults import crash, pause_for, recover_node
from repro.sim.process import ProcessState
from tests.conftest import make_raft_cluster


def test_pause_for_emits_kind_and_resumes():
    c = make_raft_cluster(3)
    c.run_until_leader()
    node = c.node("n1")
    pause_for(c.loop, node, 1000.0, kind="fault_leader_pause")
    assert node.state is ProcessState.PAUSED
    recs = c.trace.of_kind("fault_leader_pause")
    assert len(recs) == 1 and recs[0].node == "n1"
    c.run_for(1500.0)
    assert node.state is ProcessState.RUNNING


def test_pause_for_validation():
    c = make_raft_cluster(1)
    with pytest.raises(ValueError):
        pause_for(c.loop, c.node("n1"), 0.0)


def test_pause_for_tolerates_manual_resume():
    c = make_raft_cluster(3)
    node = c.node("n1")
    pause_for(c.loop, node, 5000.0)
    c.run_for(100.0)
    node.resume()
    c.run_for(6000.0)  # the scheduled resume must be a no-op
    assert node.state is ProcessState.RUNNING


def test_crash_and_recover_helpers_trace():
    c = make_raft_cluster(3)
    node = c.node("n2")
    crash(node)
    assert c.trace.of_kind("fault_crash")
    recover_node(node)
    assert c.trace.of_kind("fault_recover")
    assert node.alive


def test_stalls_do_not_break_raft_with_default_timeout():
    """Leader stalls capped far below Et=1000 never trigger baseline
    elections."""
    from repro.cluster.builder import ClusterConfig, build_cluster
    from repro.dynatune.policy import StaticPolicy

    c = build_cluster(
        ClusterConfig(n_nodes=5, seed=2, rtt_ms=50.0),
        lambda name: StaticPolicy.raft_default(),
    )
    c.start()
    c.run_until_leader()
    t0 = c.loop.now
    rng = np.random.default_rng(2)
    for _ in range(40):
        c.run_for(3_000.0)
        pause_for(c.loop, c.node(c.leader()), float(rng.uniform(100.0, 700.0)))
    c.run_for(3_000.0)
    assert [r for r in c.trace.of_kind("election_start") if r.time > t0] == []


def test_pause_for_overlapping_calls_respect_latest_duration():
    """A stale resume timer from an earlier pause must not cut the latest
    pause short (generation-token guard)."""
    c = make_raft_cluster(3)
    node = c.node("n1")
    pause_for(c.loop, node, 1_000.0)  # resume timer fires at t+1000
    c.run_for(300.0)
    node.resume()  # manual wake at t+300
    pause_for(c.loop, node, 2_000.0)  # should sleep until t+2300
    c.run_for(1_000.0)  # t+1300: the FIRST timer has fired by now
    assert node.state is ProcessState.PAUSED
    c.run_for(1_200.0)  # t+2500: the second pause's own timer resumes it
    assert node.state is ProcessState.RUNNING


def test_pause_for_generation_survives_many_cycles():
    c = make_raft_cluster(3)
    node = c.node("n2")
    for _ in range(5):
        pause_for(c.loop, node, 400.0)
        c.run_for(100.0)
        node.resume()
        c.run_for(50.0)
    pause_for(c.loop, node, 5_000.0)
    c.run_for(2_000.0)  # every stale timer has fired
    assert node.state is ProcessState.PAUSED
    c.run_for(3_500.0)
    assert node.state is ProcessState.RUNNING
