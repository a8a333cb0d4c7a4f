"""Cluster-level membership: spawn, decommission, no-resurrection rules."""

import pytest

from repro.raft.state_machine import kv_put
from repro.sim.process import ProcessState
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


def grow_by_one(c, name="n4"):
    leader = c.run_until_leader()
    c.spawn_node(name)
    assert c.node(leader).propose_config_change("add_learner", name)
    c.run_for(4_000)
    return leader


def test_spawn_node_wires_a_learner_into_the_fabric():
    c = make_raft_cluster(3)
    grow_by_one(c)
    node = c.node("n4")
    assert node.state is ProcessState.RUNNING
    assert "n4" in c.network.node_names()
    # Joined as a learner, auto-promoted once caught up.
    assert "n4" in c.node(c.leader()).membership.voters
    assert c.members() == ["n1", "n2", "n3", "n4"]


def test_spawn_node_rejects_reused_names():
    c = make_raft_cluster(3)
    with pytest.raises(ValueError):
        c.spawn_node("n2")


def test_committed_removal_decommissions_exactly_once():
    c = make_raft_cluster(3)
    c.enable_membership()
    leader = c.run_until_leader()
    victim = next(n for n in c.names if n != leader)
    assert c.node(leader).propose_config_change("remove", victim)
    c.run_for(4_000)
    assert c.node(victim).state is ProcessState.STOPPED
    assert victim not in c.network.node_names()
    assert victim not in c.members()
    # Every replica commits the entry, but the cluster tears the node
    # down once, not once per commit record.
    assert len(c.trace.of_kind("node_decommissioned")) == 1


def test_client_rotation_forgets_removed_servers():
    c = make_raft_cluster(3)
    c.enable_membership()
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    victim = next(n for n in c.names if n != leader)
    assert c.node(leader).propose_config_change("remove", victim)
    c.run_for(4_000)
    assert victim not in client.cluster
    for i in range(10):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(3_000)
    assert len(completed_ops(client)) == 10


def test_pending_traffic_never_resurrects_a_removed_node():
    c = make_raft_cluster(5)
    c.enable_membership()
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    victim = next(n for n in c.names if n != leader)
    # Keep replication traffic toward the victim in flight at removal time.
    for i in range(20):
        client.submit(kv_put(f"k{i}", i))
    assert c.node(leader).propose_config_change("remove", victim)
    c.run_for(10_000)
    node = c.node(victim)
    assert node.state is ProcessState.STOPPED
    # In-flight deliveries and armed timers drained without waking it:
    # stopped is terminal, and the fabric dropped sends to the dead name.
    assert node.role.name != "LEADER"
    assert len(completed_ops(client)) == 20


def test_crash_of_a_stopped_node_is_a_no_op():
    c = make_raft_cluster(3)
    c.enable_membership()
    leader = c.run_until_leader()
    victim = next(n for n in c.names if n != leader)
    assert c.node(leader).propose_config_change("remove", victim)
    c.run_for(4_000)
    node = c.node(victim)
    assert node.state is ProcessState.STOPPED
    node.crash()  # decommissioning is terminal: no state change
    assert node.state is ProcessState.STOPPED
    # Direct recovery of a decommissioned node is a programming error —
    # the scenario layer's Recover/Churn steps skip it with a traced
    # no-op instead of ever reaching this call.
    with pytest.raises(Exception, match="STOPPED"):
        node.recover()
    assert node.state is ProcessState.STOPPED


def test_leader_excludes_stopped_nodes():
    c = make_raft_cluster(3)
    c.enable_membership()
    leader = c.run_until_leader()
    assert c.node(leader).propose_config_change("remove", leader)
    c.run_for(6_000)
    new_leader = c.leader()
    assert new_leader is not None and new_leader != leader
