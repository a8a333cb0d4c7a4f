"""Membership: config algebra, one-at-a-time proposals, lifecycle edges."""

import pytest

from repro.raft.membership import ClusterConfig, ConfigChange, quorums_overlap
from repro.raft.state_machine import kv_put
from repro.raft.types import RaftConfig
from repro.scenarios.safety import SafetyChecker
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


# --------------------------------------------------------------------- #
# config algebra
# --------------------------------------------------------------------- #


def test_config_is_sorted_and_content_hashed():
    a = ClusterConfig(voters=("n3", "n1", "n2"))
    b = ClusterConfig(voters=("n1", "n2", "n3"))
    assert a == b
    assert a.voters == ("n1", "n2", "n3")
    assert a.quorum == 2


def test_config_rejects_duplicates_and_voter_learner_overlap():
    with pytest.raises(ValueError):
        ClusterConfig(voters=("n1", "n1"))
    with pytest.raises(ValueError):
        ClusterConfig(voters=("n1",), learners=("n1",))


def test_learner_lifecycle():
    cfg = ClusterConfig(voters=("n1", "n2", "n3"))
    grown = cfg.with_learner("n4")
    assert grown.is_learner("n4") and not grown.is_voter("n4")
    assert grown.quorum == cfg.quorum  # learners change no quorum
    promoted = grown.with_promoted("n4")
    assert promoted.is_voter("n4")
    assert promoted.quorum == 3
    shrunk = promoted.without("n1")
    assert "n1" not in shrunk
    assert shrunk.quorum == 2


def test_derivation_rejects_invalid_transitions():
    cfg = ClusterConfig(voters=("n1", "n2"), learners=("n3",))
    with pytest.raises(ValueError):
        cfg.with_learner("n1")  # double add of a voter
    with pytest.raises(ValueError):
        cfg.with_learner("n3")  # double add of a learner
    with pytest.raises(ValueError):
        cfg.with_promoted("n1")  # promoting a non-learner
    with pytest.raises(ValueError):
        cfg.without("n9")  # removing a stranger


def test_config_change_round_trips_and_validates_kind():
    cfg = ClusterConfig(voters=("n1", "n2"), learners=("n3",))
    change = ConfigChange(kind="promote", node="n3", config=cfg)
    assert ConfigChange.from_dict(change.to_dict()) == change
    with pytest.raises(ValueError):
        ConfigChange(kind="swap", node="n3", config=cfg)


def test_quorums_overlap_is_the_one_at_a_time_guarantee():
    base = {"n1", "n2", "n3"}
    assert quorums_overlap(base, base | {"n4"})
    assert quorums_overlap(base | {"n4"}, base)
    # Two-at-a-time is exactly what breaks it: majorities of {1..5} and
    # {1..3} can be disjoint only after dropping two voters at once.
    assert not quorums_overlap({"n1", "n2", "n3", "n4", "n5"}, {"n1", "n2", "n3"})
    assert quorums_overlap(set(), base)  # bootstrap transition is safe


# --------------------------------------------------------------------- #
# proposal gates
# --------------------------------------------------------------------- #


def test_double_add_is_rejected():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    node = c.node(leader)
    assert not node.propose_config_change("add_learner", "n2")
    rejected = [r for r in c.trace.of_kind("config_rejected") if r.node == leader]
    assert len(rejected) == 1 and rejected[0].get("target") == "n2"


def test_only_one_change_in_flight():
    c = make_raft_cluster(5)
    leader = c.run_until_leader()
    node = c.node(leader)
    followers = [n for n in c.names if n != leader]
    assert node.propose_config_change("remove", followers[0])
    # Second proposal before the first commits: rejected, not queued.
    assert node.config_change_in_flight()
    assert not node.propose_config_change("remove", followers[1])
    c.run_for(3_000)
    # Once committed, the gate reopens.
    assert not node.config_change_in_flight()
    assert node.propose_config_change("remove", followers[1])


def test_followers_reject_proposals():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    follower = next(n for n in c.names if n != leader)
    assert not c.node(follower).propose_config_change("remove", leader)


# --------------------------------------------------------------------- #
# lifecycle edges
# --------------------------------------------------------------------- #


def test_leader_steps_down_after_committing_own_removal():
    c = make_raft_cluster(3)
    c.enable_membership()
    checker = SafetyChecker(c)
    checker.install(event_hooks=True)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    assert c.node(leader).propose_config_change("remove", leader)
    c.run_for(6_000)
    # The deposed leader is decommissioned and a survivor leads.
    assert leader not in c.members()
    new_leader = c.leader()
    assert new_leader is not None and new_leader != leader
    # The two-node remainder still commits client work.
    client.submit(kv_put("after", 1))
    c.run_for(2_000)
    assert len(completed_ops(client)) == 1
    checker.assert_safe()


def test_leader_removed_mid_replication_loses_nothing():
    c = make_raft_cluster(5)
    c.enable_membership()
    checker = SafetyChecker(c)
    checker.install(event_hooks=True)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    for i in range(30):
        client.submit(kv_put(f"k{i}", i))
    # Propose the leader's own removal while those entries are in flight.
    assert c.node(leader).propose_config_change("remove", leader)
    c.run_for(8_000)
    assert leader not in c.members()
    assert len(completed_ops(client)) == 30
    snaps = [c.node(n).state_machine.snapshot() for n in c.members()]
    assert all(s == snaps[0] for s in snaps)
    checker.assert_safe()


def test_add_while_learner_snapshot_in_flight():
    c = make_raft_cluster(
        3, raft=RaftConfig(compaction_threshold=20, compaction_retain_margin=4)
    )
    checker = SafetyChecker(c)
    checker.install(event_hooks=True)
    client = c.add_client("cl")
    leader = c.run_until_leader()
    for i in range(60):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(6_000)
    assert c.node(leader).metrics.compactions >= 1
    # First joiner: its catch-up must go through InstallSnapshot.
    c.spawn_node("n4")
    assert c.node(leader).propose_config_change("add_learner", "n4")
    c.run_for(400)  # the add commits; the snapshot transfer is still young
    c.spawn_node("n5")
    assert c.node(c.leader()).propose_config_change("add_learner", "n5")
    c.run_for(8_000)
    voters = c.node(c.leader()).membership.voters
    assert "n4" in voters and "n5" in voters
    assert c.node("n4").metrics.snapshots_installed >= 1
    assert c.node("n5").metrics.snapshots_installed >= 1
    checker.assert_safe()


def test_crash_recover_preserves_committed_config():
    c = make_raft_cluster(
        3, raft=RaftConfig(compaction_threshold=20, compaction_retain_margin=4)
    )
    client = c.add_client("cl")
    leader = c.run_until_leader()
    c.spawn_node("n4")
    assert c.node(leader).propose_config_change("add_learner", "n4")
    c.run_for(4_000)
    assert "n4" in c.node(leader).membership.voters  # auto-promoted
    # Bury the config entries under the compaction frontier, then bounce a
    # follower: the durable snapshot must restore the committed config.
    for i in range(60):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(6_000)
    follower = next(n for n in c.members() if n != c.leader() and n != "n4")
    node = c.node(follower)
    assert node.log.last_included_index > 0
    node.crash()
    c.run_for(1_000)
    node.recover()
    c.run_for(3_000)
    assert "n4" in node.membership.voters
    assert node.membership == c.node(c.leader()).membership


def test_uncommitted_config_entry_survives_crash_until_overwritten():
    c = make_raft_cluster(5)
    leader = c.run_until_leader()
    node = c.node(leader)
    # Cut the leader off so its config entry can never commit.
    c.network.set_partitions([{leader}])
    assert node.propose_config_change("remove", "n5" if leader != "n5" else "n4")
    target = node.membership
    node.crash()
    c.run_for(50)
    node.recover()
    # Applied-at-append must survive the crash: the durable log still
    # holds the uncommitted entry, so the rebuilt config matches.
    assert node.membership == target
    # Healed, the new leader's log overwrites the orphan entry and the
    # node falls back to the committed five-voter config.
    c.network.clear_partitions()
    c.run_for(6_000)
    assert len(node.membership.voters) == 5
    configs = {c.node(n).membership for n in c.names}
    assert len(configs) == 1


def test_learner_ack_never_counts_toward_commit():
    c = make_raft_cluster(5)
    checker = SafetyChecker(c)
    checker.install(event_hooks=True)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    node = c.node(leader)
    c.run_for(500)
    ally = next(n for n in c.names if n != leader)
    c.spawn_node("n6")
    # The leader keeps one voter and the joiner: two of five voters, so
    # nothing it appends from here on may commit, however promptly the
    # learner acknowledges it.
    c.network.set_partitions([{leader, ally, "n6", "cl"}])
    committed = node.commit_index
    assert node.propose_config_change("add_learner", "n6")
    client.submit(kv_put("minority", 1))
    c.run_for(200)
    assert node.is_leader
    assert node.progress["n6"].match == node.progress[ally].match == node.log.last_index
    assert node.log.last_index > committed
    assert node.commit_index == committed
    assert not completed_ops(client)

    # Healed, the real quorum commits the add; the caught-up learner is
    # promoted, and committing ``promote`` takes four of the six voters.
    c.network.clear_partitions()
    c.run_for(6_000)
    leader = c.leader()
    node = c.node(leader)
    assert "n6" in node.membership.voters and node.membership.quorum == 4
    assert not node.config_change_in_flight()
    # From the promotion on (tracker rebuilt over six voters) the
    # ex-learner's acks count: with two voters cut off, leader + two old
    # voters + n6 are exactly a quorum.
    old = [n for n in node.membership.voters if n not in (leader, "n6")]
    c.network.set_partitions([{leader, old[0], old[1], "n6", "cl"}])
    done = len(completed_ops(client))
    client.submit(kv_put("with-n6", 2))
    c.run_for(1_000)
    assert len(completed_ops(client)) == done + 1
    checker.assert_safe()
