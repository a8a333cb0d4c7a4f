"""Log replication: commit, apply, catch-up, conflict resolution."""

from repro.cluster.faults import pause_for
from repro.cluster.workload import OpenLoopDriver
from repro.raft.state_machine import kv_get, kv_put
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


def submit_and_settle(c, client, commands, settle_ms=3000):
    for cmd in commands:
        client.submit(cmd)
    c.run_for(settle_ms)


def test_put_commits_on_all_replicas():
    c = make_raft_cluster(3)
    client = add_recorded_client(c, "cl")
    c.run_until_leader()
    submit_and_settle(c, client, [kv_put("x", 42)])
    assert len(completed_ops(client)) == 1
    for n in c.names:
        assert c.node(n).state_machine.peek("x") == 42


def test_linearizable_get_through_log():
    c = make_raft_cluster(3)
    client = add_recorded_client(c, "cl")
    c.run_until_leader()
    submit_and_settle(c, client, [kv_put("x", 1)])
    client.submit(kv_get("x"))
    c.run_for(2000)
    get = [r for r in completed_ops(client) if r.op == "get"]
    assert get[0].result == 1


def test_many_concurrent_requests_all_commit():
    c = make_raft_cluster(5)
    client = add_recorded_client(c, "cl")
    c.run_until_leader()
    submit_and_settle(c, client, [kv_put(f"k{i}", i) for i in range(50)], settle_ms=8000)
    assert len(completed_ops(client)) == 50
    assert c.trace.of_kind("client_giveup") == []
    snaps = [c.node(n).state_machine.snapshot() for n in c.names]
    assert all(s == snaps[0] for s in snaps)
    assert len(snaps[0]) == 50


def test_commit_index_agrees_across_replicas():
    c = make_raft_cluster(3)
    client = c.add_client("cl")
    c.run_until_leader()
    submit_and_settle(c, client, [kv_put(f"k{i}", i) for i in range(10)])
    commits = {c.node(n).commit_index for n in c.names}
    assert len(commits) == 1


def test_leader_noop_entry_appended_on_election():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    c.run_for(1000)
    log = c.node(leader).log
    assert log.last_index >= 1
    assert log.entry_at(1).command is None  # the no-op


def test_follower_catches_up_after_pause():
    c = make_raft_cluster(5)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    c.run_for(500)
    lagger = next(n for n in c.names if n != leader)
    c.node(lagger).pause()
    submit_and_settle(c, client, [kv_put(f"k{i}", i) for i in range(20)], settle_ms=5000)
    assert len(completed_ops(client)) == 20  # majority commits without the lagger
    assert c.node(lagger).state_machine.snapshot() == {}
    c.node(lagger).resume()
    c.run_for(5000)
    assert c.node(lagger).state_machine.snapshot() == c.node(leader).state_machine.snapshot()
    assert c.node(lagger).commit_index == c.node(leader).commit_index


def test_commits_survive_leader_failover():
    c = make_raft_cluster(5)
    client = add_recorded_client(c, "cl")
    old = c.run_until_leader()
    submit_and_settle(c, client, [kv_put(f"a{i}", i) for i in range(10)], settle_ms=4000)
    assert len(completed_ops(client)) == 10
    pause_for(c.loop, c.node(old), 8_000.0)
    new = c.run_until_leader(exclude=old, timeout_ms=20_000)
    c.run_for(2000)
    # Everything committed under the old leader is present under the new.
    snap = c.node(new).state_machine.snapshot()
    for i in range(10):
        assert snap[f"a{i}"] == i


def test_writes_continue_after_failover():
    c = make_raft_cluster(5)
    client = add_recorded_client(c, "cl", retry_timeout_ms=500.0)
    old = c.run_until_leader()
    submit_and_settle(c, client, [kv_put("before", 1)])
    pause_for(c.loop, c.node(old), 10_000.0)
    c.run_until_leader(exclude=old, timeout_ms=20_000)
    submit_and_settle(c, client, [kv_put("after", 2)], settle_ms=5000)
    assert {r.key for r in completed_ops(client)} == {"before", "after"}
    c.run_for(8000)  # old leader rejoins
    assert c.node(old).state_machine.peek("after") == 2


def test_uncommitted_minority_entries_are_overwritten():
    """Entries replicated only to a minority are discarded when a new
    leader (elected by the majority) overwrites them — §5.3 conflict rule.
    """
    c = make_raft_cluster(5)
    client = add_recorded_client(c, "cl", retry_timeout_ms=400.0)
    # The client must not re-propose after the heal, or the new leader
    # would (correctly!) commit a fresh copy — here we watch the *original*
    # minority entry get overwritten.
    client.max_retries = 1
    old = c.run_until_leader()
    c.run_for(500)
    followers = [n for n in c.names if n != old]
    # Leader + one follower in the minority: new entries reach only them.
    minority = {old, followers[0], "cl"}
    c.network.set_partitions([minority, set(followers[1:])])
    doomed = client.submit(kv_put("doomed", 666))
    c.run_for(1_500)

    def holds_doomed(name):
        log = c.node(name).log
        return any(
            getattr(e.command, "key", None) == "doomed" for e in log.entries()
        )

    assert holds_doomed(old)  # appended in the minority...
    assert not holds_doomed(followers[1])  # ...but never reached the majority
    new = c.run_until_leader(exclude=old, timeout_ms=20_000)
    assert new in followers[1:]
    c.network.clear_partitions()
    c.run_for(6_000)
    # The doomed entry must be gone everywhere — log and state machine.
    for n in c.names:
        assert c.node(n).state_machine.peek("doomed") is None
        assert not holds_doomed(n)
    assert doomed not in [r.req_id for r in completed_ops(client)]


def test_log_matching_committed_prefix_identical():
    c = make_raft_cluster(5)
    client = c.add_client("cl")
    c.run_until_leader()
    submit_and_settle(c, client, [kv_put(f"k{i}", i) for i in range(15)], settle_ms=5000)
    commit = min(c.node(n).commit_index for n in c.names)
    reference = c.node(c.names[0]).log
    for n in c.names[1:]:
        log = c.node(n).log
        for i in range(1, commit + 1):
            assert log.entry_at(i) == reference.entry_at(i)


def test_duplicate_client_submission_is_at_least_once():
    """The client retries on silence; a put applied twice is idempotent at
    the KV level (documented at-least-once semantics)."""
    c = make_raft_cluster(3)
    client = add_recorded_client(c, "cl", retry_timeout_ms=300.0)
    c.run_until_leader()
    client.submit(kv_put("x", 9))
    c.run_for(4000)
    assert completed_ops(client) and completed_ops(client)[0].result == 9
    assert c.node(c.names[0]).state_machine.peek("x") == 9


def test_appends_under_load_do_not_delay_heartbeats():
    """An AppendEntries never stands in for a heartbeat: under a steady
    200 req/s load the leader beats each follower exactly as often as when
    idle (the paper's §IV-E suppression idea is not implemented)."""
    c = make_raft_cluster(5)
    client = c.add_client("cl")
    node = c.node(c.run_until_leader())
    c.run_for(1_000)
    sent = node.metrics.heartbeats_sent
    c.run_for(10_000)
    idle = node.metrics.heartbeats_sent - sent
    driver = OpenLoopDriver(c.loop, client, rps=200.0, rng=c.rngs.stream("load"))
    driver.start()
    sent, appends = node.metrics.heartbeats_sent, node.metrics.appends_sent
    c.run_for(10_000)
    driver.stop()
    assert node.metrics.appends_sent - appends > 5 * idle  # the load was real
    assert node.metrics.heartbeats_sent - sent >= 0.95 * idle
