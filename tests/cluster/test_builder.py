"""Cluster builder: wiring, config validation, leader queries."""

import math

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.dynatune.policy import StaticPolicy
from tests.conftest import make_raft_cluster


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=0)
    with pytest.raises(ValueError):
        ClusterConfig(topology="lan-party")
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ClusterConfig(jitter_sigma_ms=sigma)


def test_builder_names_and_links():
    c = make_raft_cluster(4)
    assert c.names == ["n1", "n2", "n3", "n4"]
    assert len(c.network.links()) == 12


def test_builder_aws_topology_sets_placement():
    c = build_cluster(
        ClusterConfig(n_nodes=5, topology="aws", seed=1),
        lambda name: StaticPolicy(),
    )
    assert c.placement is not None
    assert set(c.placement) == set(c.names)


def test_uniform_topology_has_no_placement():
    c = make_raft_cluster(3)
    assert c.placement is None


def test_cost_model_only_when_requested():
    assert make_raft_cluster(2).cost_model is None
    c = make_raft_cluster(2, with_cost_model=True)
    assert c.cost_model is not None


def test_leader_none_before_any_election():
    c = build_cluster(ClusterConfig(n_nodes=3, seed=1), lambda name: StaticPolicy())
    assert c.leader() is None


def test_run_until_leader_timeout_raises():
    # Cluster never started: no elections can happen.
    c = build_cluster(ClusterConfig(n_nodes=3, seed=1), lambda name: StaticPolicy())
    with pytest.raises(TimeoutError):
        c.run_until_leader(timeout_ms=100.0)


def test_leader_picks_highest_term_among_claimants():
    c = make_raft_cluster(5)
    old = c.run_until_leader()
    c.run_for(500)
    # Partition the old leader away; a new one rises at a higher term while
    # the old one still believes (until its quorum check fires).
    c.network.set_partitions([{old}, set(c.names) - {old}])
    new = c.run_until_leader(exclude=old, timeout_ms=20_000)
    assert c.leader() == new


def test_run_for_advances_clock():
    c = make_raft_cluster(2)
    t0 = c.loop.now
    c.run_for(1234.0)
    assert c.loop.now == t0 + 1234.0


def test_add_client_wires_links_both_ways():
    c = make_raft_cluster(3)
    client = c.add_client("cl", rtt_ms=30.0)
    assert c.network.link("cl", "n1").rtt_ms == pytest.approx(30.0)
    assert c.network.link("n1", "cl").rtt_ms == pytest.approx(30.0)
    assert client.cluster == c.names


def test_alive_nodes_excludes_paused():
    c = make_raft_cluster(3)
    c.node("n1").pause()
    assert len(c.alive_nodes()) == 2


def test_default_clocks_are_identity():
    c = make_raft_cluster(3)
    for name in c.names:
        clock = c.node(name).clock
        assert not clock.skewed
        assert clock.now() == c.loop.now
