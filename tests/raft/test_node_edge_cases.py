"""RaftNode edge cases: stale terms, recovery, validation, metrics."""

import pytest

from repro.cluster.faults import crash, recover_node
from repro.raft.messages import (
    AppendEntriesResponse,
    HeartbeatRequest,
    HeartbeatResponse,
    VoteResponse,
)
from repro.raft.state_machine import kv_put
from repro.raft.types import Role
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


def test_node_requires_self_in_peers():
    from repro.cluster.builder import ClusterConfig, build_cluster
    from repro.dynatune.policy import StaticPolicy
    from repro.raft.node import RaftNode
    from repro.raft.state_machine import KVStore
    from repro.raft.types import RaftConfig
    from repro.sim.loop import EventLoop
    from repro.sim.rng import RngRegistry
    from repro.sim.tracing import TraceLog

    loop = EventLoop()
    with pytest.raises(ValueError):
        RaftNode(
            loop=loop,
            name="nX",
            peers=["a", "b"],
            network=None,
            config=RaftConfig(),
            policy=StaticPolicy(),
            state_machine=KVStore(),
            trace=TraceLog(),
            rng=RngRegistry(1).stream("x"),
        )


def test_stale_heartbeat_answered_with_current_term():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    c.run_for(500)
    others = [n for n in c.names if n != leader]
    node, impostor = c.node(others[0]), others[1]
    term = node.current_term
    node.deliver(
        impostor,
        HeartbeatRequest(term=max(term - 1, 0), leader=impostor, commit=0),
    )
    c.run_for(100)
    assert node.leader_id == leader  # stale claimant not adopted
    assert node.current_term == term


def test_leader_steps_down_on_higher_term_heartbeat_response():
    c = make_raft_cluster(3)
    leader_name = c.run_until_leader()
    leader = c.node(leader_name)
    leader.deliver(
        "peer",
        HeartbeatResponse(term=leader.current_term + 3, follower="peer", last_log_index=0),
    )
    assert leader.role is Role.FOLLOWER
    assert leader.current_term >= 3


def test_leader_steps_down_on_higher_term_append_response():
    c = make_raft_cluster(3)
    leader_name = c.run_until_leader()
    leader = c.node(leader_name)
    leader.deliver(
        "peer",
        AppendEntriesResponse(
            term=leader.current_term + 1, follower="peer", success=False, match_index=0
        ),
    )
    assert leader.role is Role.FOLLOWER


def test_stale_vote_response_ignored():
    c = make_raft_cluster(3)
    leader_name = c.run_until_leader()
    leader = c.node(leader_name)
    term = leader.current_term
    leader.deliver("peer", VoteResponse(term=term - 1, voter="peer", granted=True))
    assert leader.role is Role.LEADER
    assert leader.current_term == term


def test_unknown_payload_type_raises():
    c = make_raft_cluster(1)
    with pytest.raises(TypeError):
        c.node("n1").deliver("x", object())


def test_crash_recovery_preserves_term_vote_and_log():
    c = make_raft_cluster(3)
    client = c.add_client("cl")
    leader = c.run_until_leader()
    client.submit(kv_put("x", 5))
    c.run_for(2000)
    victim_name = next(n for n in c.names if n != leader)
    victim = c.node(victim_name)
    term, voted, log_len = victim.current_term, victim.voted_for, victim.log.last_index
    crash(victim)
    c.run_for(1000)
    recover_node(victim)
    assert victim.current_term == term
    assert victim.voted_for == voted
    assert victim.log.last_index == log_len
    # Volatile state reset: reapplies from scratch.
    assert victim.commit_index == 0
    c.run_for(3000)
    assert victim.state_machine.peek("x") == 5  # replayed via leader commit


def test_recovered_node_rejoins_as_follower():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    c.run_for(500)
    victim = c.node(next(n for n in c.names if n != leader))
    crash(victim)
    c.run_for(1000)
    recover_node(victim)
    c.run_for(3000)
    assert victim.role is Role.FOLLOWER
    assert victim.leader_id == c.leader()


def test_crashed_leader_replaced():
    c = make_raft_cluster(5)
    old = c.run_until_leader()
    crash(c.node(old))
    new = c.run_until_leader(exclude=old, timeout_ms=20_000)
    assert new != old


def test_heartbeat_commit_clamped_to_match_index():
    """A heartbeat can never tell a follower to commit entries it might
    not hold: commit is clamped to the leader's match_index for it."""
    c = make_raft_cluster(3)
    client = c.add_client("cl")
    leader_name = c.run_until_leader()
    c.run_for(500)
    leader = c.node(leader_name)
    lagger = next(n for n in c.names if n != leader_name)
    c.node(lagger).pause()
    for i in range(5):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(3000)
    assert leader.progress[lagger].match < leader.commit_index
    # Any heartbeat built for the lagger right now must clamp.
    commit = min(leader.commit_index, leader.progress[lagger].match)
    assert commit == leader.progress[lagger].match


def test_metrics_counters_increment():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    c.run_for(2000)
    lm = c.node(leader).metrics
    assert lm.heartbeats_sent > 0
    assert lm.times_leader == 1
    f = c.node(next(n for n in c.names if n != leader)).metrics
    assert f.heartbeats_received > 0


def test_current_randomized_timeout_exposed():
    c = make_raft_cluster(3)
    c.run_until_leader()
    c.run_for(1000)
    for n in c.names:
        assert c.node(n).current_randomized_timeout_ms > 0.0


def test_single_node_commits_immediately():
    c = make_raft_cluster(1)
    client = add_recorded_client(c, "cl")
    c.run_until_leader()
    client.submit(kv_put("solo", 1))
    c.run_for(1000)
    assert completed_ops(client)
    assert c.node("n1").state_machine.peek("solo") == 1
