"""Replication pipeline control: the inflight cap and stall recovery.

Regression coverage for a found-in-testing failure mode: without an
inflight bound, every append response to a still-behind follower spawned a
fresh resend, and under sustained load those send/response chains
multiplied without bound (leader CPU grew ~70× in 15 s).  The cap plus
stall detection keeps append traffic proportional to the log, while the
heartbeat-response catchup path still rescues followers whose acks were
lost across a pause.
"""

from repro.cluster.workload import OpenLoopDriver
from repro.raft.node import _MAX_INFLIGHT_APPENDS
from repro.raft.state_machine import kv_put
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


def test_append_traffic_proportional_to_load():
    """Total append messages stay within a small multiple of commits."""
    c = make_raft_cluster(5, rtt_ms=50.0, with_cost_model=True)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    driver = OpenLoopDriver(c.loop, client, rps=200.0, rng=c.rngs.stream("load"))
    driver.start()
    c.run_for(10_000)
    driver.stop()
    c.run_for(2_000)
    commits = len(completed_ops(client))
    appends = c.node(leader).metrics.appends_sent
    assert commits > 1_500
    # 4 followers; batching means appends per commit should stay low even
    # with per-proposal eager sends (the regression produced ~150×).
    assert appends < 12 * commits


def test_inflight_counter_returns_to_zero_when_idle():
    c = make_raft_cluster(3, rtt_ms=20.0)
    client = c.add_client("cl")
    leader = c.run_until_leader()
    for i in range(30):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(5_000)  # drain completely
    node = c.node(leader)
    assert all(pr.inflight == 0 for pr in node.progress.values())
    assert all(node.progress[p].match == node.log.last_index for p in node.peers)


def test_proposals_respect_inflight_cap():
    """A burst of proposals may not put more than the cap in flight."""
    c = make_raft_cluster(3, rtt_ms=200.0)  # slow acks keep pipeline busy
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    c.run_for(500)
    for i in range(50):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(50)  # before any ack can return (RTT 200)
    node = c.node(leader)
    for peer in node.peers:
        assert node.progress[peer].inflight <= _MAX_INFLIGHT_APPENDS
    c.run_for(10_000)
    assert len(completed_ops(client)) == 50  # everything still commits


def test_stalled_pipeline_recovers_via_heartbeat_catchup():
    """Acks lost across a follower pause: inflight is stuck at the cap,
    yet the follower catches up once heartbeat responses resume."""
    c = make_raft_cluster(5, rtt_ms=50.0)
    client = c.add_client("cl")
    leader = c.run_until_leader()
    c.run_for(500)
    lagger = next(n for n in c.names if n != leader)
    c.node(lagger).pause()
    # Proposals while paused: sends to the lagger are dropped -> no acks.
    for i in range(30):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(4_000)
    node = c.node(leader)
    assert node.progress[lagger].match < node.log.last_index
    c.node(lagger).resume()
    c.run_for(6_000)  # stall threshold (1 s) passes; heartbeats rescue it
    assert node.progress[lagger].match == node.log.last_index
    assert c.node(lagger).state_machine.snapshot() == c.node(leader).state_machine.snapshot()
