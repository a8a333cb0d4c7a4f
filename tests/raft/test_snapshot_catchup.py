"""Node-level compaction: policy triggers, snapshot transfer, durable recovery."""

from repro.raft.state_machine import kv_put
from repro.raft.types import RaftConfig
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


def compaction_cluster(n=3, *, threshold=20, margin=4, **kwargs):
    return make_raft_cluster(
        n,
        raft=RaftConfig(
            compaction_threshold=threshold, compaction_retain_margin=margin
        ),
        **kwargs,
    )


def submit_and_settle(c, client, commands, settle_ms=3000):
    for cmd in commands:
        client.submit(cmd)
    c.run_for(settle_ms)


def test_compaction_triggers_and_bounds_retained_entries():
    c = compaction_cluster(threshold=20, margin=4)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    submit_and_settle(c, client, [kv_put(f"k{i}", i) for i in range(80)], settle_ms=9000)
    assert len(completed_ops(client)) == 80
    node = c.node(leader)
    assert node.metrics.compactions >= 1
    assert node.metrics.snapshots_taken >= 1
    assert node.log.first_index > 1
    assert node.snapshot is not None
    # Healthy cluster: every replica keeps up, so every replica compacts
    # and the retained window stays near threshold + margin.
    for n in c.names:
        log = c.node(n).log
        assert log.last_index - log.last_included_index <= 20 + 4 + 8
    # Compaction must not disturb replication or the applied state.
    snaps = [c.node(n).state_machine.snapshot() for n in c.names]
    assert all(s == snaps[0] for s in snaps)
    assert len(snaps[0]) == 80


def test_live_followers_never_need_snapshot_transfer():
    c = compaction_cluster(threshold=10, margin=2)
    client = c.add_client("cl")
    leader = c.run_until_leader()
    submit_and_settle(c, client, [kv_put(f"k{i}", i) for i in range(60)], settle_ms=8000)
    # The leader never compacts past a live follower's match index, so the
    # ordinary append path always suffices.
    assert c.trace.of_kind("snapshot_send") == []
    for n in c.names:
        assert c.node(n).metrics.snapshots_installed == 0


def test_crashed_follower_catches_up_via_snapshot():
    c = compaction_cluster(n=5, threshold=20, margin=4)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    c.run_for(500)
    lagger = next(n for n in c.names if n != leader)
    c.node(lagger).crash()
    submit_and_settle(c, client, [kv_put(f"k{i}", i) for i in range(80)], settle_ms=9000)
    assert len(completed_ops(client)) == 80
    lead = c.node(leader)
    # The dead follower must not hold memory hostage: the leader compacts
    # past its match index while it is away.
    assert lead.log.first_index > lead.progress[lagger].match + 1
    c.node(lagger).recover()
    c.run_for(4000)
    follower = c.node(lagger)
    assert follower.metrics.snapshots_installed >= 1
    assert any(r.node == leader for r in c.trace.of_kind("snapshot_send"))
    assert follower.state_machine.snapshot() == lead.state_machine.snapshot()
    assert follower.commit_index == lead.commit_index
    # History independence: the follower applied far fewer entries than the
    # history holds — the snapshot covered the bulk.
    assert follower.metrics.entries_applied < 40
    rec = c.trace.of_kind("snapshot_install")
    assert rec and rec[0].node == lagger


def test_recover_restores_durable_snapshot_without_full_replay():
    c = compaction_cluster(threshold=15, margin=3)
    client = c.add_client("cl")
    leader = c.run_until_leader()
    submit_and_settle(c, client, [kv_put(f"k{i}", i) for i in range(50)], settle_ms=7000)
    follower = next(n for n in c.names if n != leader)
    node = c.node(follower)
    assert node.snapshot is not None  # followers compact too
    snap_index = node.snapshot.last_included_index
    pre_crash_state = node.state_machine.snapshot()
    node.crash()
    c.run_for(1000)
    node.recover()
    # Immediately after recovery the durable snapshot is live state: the
    # commit floor sits at the snapshot index, not 0, and the machine holds
    # the snapshot image before any entry replays.
    assert node.commit_index >= snap_index
    assert node.last_applied >= snap_index
    applied_at_recovery = node.metrics.entries_applied
    c.run_for(4000)
    assert node.state_machine.snapshot() == pre_crash_state
    # Only the tail beyond the snapshot replayed.
    assert node.metrics.entries_applied - applied_at_recovery <= 50 - snap_index + 10


def test_recover_without_snapshot_still_replays_from_scratch():
    c = make_raft_cluster(3)  # compaction disabled: the pre-compaction path
    client = c.add_client("cl")
    leader = c.run_until_leader()
    submit_and_settle(c, client, [kv_put(f"k{i}", i) for i in range(10)])
    follower = next(n for n in c.names if n != leader)
    node = c.node(follower)
    assert node.snapshot is None
    node.crash()
    c.run_for(500)
    node.recover()
    assert node.commit_index == 0  # volatile, as before compaction existed
    c.run_for(4000)
    assert node.state_machine.snapshot() == c.node(leader).state_machine.snapshot()


def test_leader_crash_recover_with_snapshot_keeps_cluster_consistent():
    c = compaction_cluster(n=5, threshold=20, margin=4)
    client = c.add_client("cl")
    old = c.run_until_leader()
    submit_and_settle(c, client, [kv_put(f"a{i}", i) for i in range(60)], settle_ms=8000)
    assert c.node(old).snapshot is not None
    c.node(old).crash()
    new = c.run_until_leader(exclude=old, timeout_ms=20_000)
    c.run_for(1000)
    c.node(old).recover()
    c.run_for(5000)
    assert c.node(old).state_machine.snapshot() == c.node(new).state_machine.snapshot()
    for i in range(60):
        assert c.node(old).state_machine.peek(f"a{i}") == i
