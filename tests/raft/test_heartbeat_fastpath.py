"""Heartbeat send-path caching: shared immutable requests must be correct.

The leader re-sends one cached ``HeartbeatRequest`` object per follower
while ``(term, commit)`` hold and no metadata is attached, and a follower
re-uses one cached ``HeartbeatResponse`` while ``(term, last_log_index)``
hold.  These tests pin the invalidation rules and that the caches can
never leak across reigns.
"""

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.dynatune.policy import DynatunePolicy
from repro.experiments.common import make_policy_factory
from repro.raft.messages import HeartbeatRequest
from repro.raft.state_machine import kv_put
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import SetClock
from tests.conftest import make_raft_cluster


def test_static_policy_heartbeats_are_cached_per_peer():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    c.run_for(2_000.0)
    node = c.node(leader)
    cached = {p: pr.hb_request for p, pr in node.progress.items()}
    assert set(cached) == set(node.peers)
    for peer, req in cached.items():
        assert isinstance(req, HeartbeatRequest)
        assert req.term == node.current_term
        assert req.meta is None
    c.run_for(1_000.0)
    # Steady state: same immutable objects are still being re-sent.
    for peer in node.peers:
        assert node.progress[peer].hb_request is cached[peer]


def test_cached_heartbeat_invalidated_when_commit_advances():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    c.run_for(2_000.0)
    node = c.node(leader)
    peer = node.peers[0]
    before = node.progress[peer].hb_request
    client = c.add_client("cli")
    client.submit(kv_put("k", "v"))
    c.run_for(3_000.0)
    assert node.commit_index > before.commit
    after = node.progress[peer].hb_request
    assert after is not before
    assert after.commit == min(node.commit_index, node.progress[peer].match)


def test_caches_cleared_on_step_down_and_new_reign():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    c.run_for(1_000.0)
    node = c.node(leader)
    assert all(pr.hb_request is not None for pr in node.progress.values())
    node._become_follower(node.current_term + 5, None)
    assert node.progress == {}
    assert not [n for n in node.timers.names() if n.startswith("hb")]


def test_dynatune_heartbeats_always_carry_fresh_meta():
    cluster = build_cluster(
        ClusterConfig(n_nodes=3, seed=5, rtt_ms=50.0),
        lambda name: DynatunePolicy(),
    )
    cluster.start()
    leader = cluster.run_until_leader()
    cluster.run_for(2_000.0)
    node = cluster.node(leader)
    # Metadata-bearing heartbeats must never come from the cache: the
    # cache only serves meta-None requests.
    assert all(pr.hb_request is None for pr in node.progress.values())
    # And the sequence spaces actually advanced per peer.
    pol = node.policy
    for peer in node.peers:
        assert pol._paths[peer].next_seq > 5


def test_follower_response_cache_tracks_log_growth():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    c.run_for(2_000.0)
    follower = next(n for n in c.nodes.values() if n.name != leader)
    resp = follower._hb_resp_cache
    assert resp is not None
    assert resp.term == follower.current_term
    assert resp.last_log_index == follower.log.last_index
    client = c.add_client("cli")
    client.submit(kv_put("a", "1"))
    c.run_for(3_000.0)
    resp2 = follower._hb_resp_cache
    assert resp2 is not resp
    assert resp2.last_log_index == follower.log.last_index > resp.last_log_index


def test_metrics_count_commit_advances_under_load():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    client = c.add_client("cli")
    for i in range(5):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(5_000.0)
    node = c.node(leader)
    assert node.metrics.commit_advances >= 1
    assert node.commit_index >= 5


def test_on_heartbeat_rearm_matches_arm_election_timer():
    """``_on_heartbeat`` inlines ``_arm_election_timer``; pin the two together.

    Two clusters built alike reach the same state.  One follower takes
    Dynatune heartbeats (RTT samples moving its Et every beat) through
    ``_on_heartbeat``; its twin in the other cluster feeds the same
    metadata to its policy and re-arms through ``_arm_election_timer``.
    Each beat must draw the same randomized timeout and leave the same
    election-timer deadline, across the node's random-block refills and
    under a drifting local clock.
    """
    from repro.dynatune.metadata import HeartbeatMeta
    from repro.raft.messages import HeartbeatRequest

    def follower():
        cluster = build_cluster(
            ClusterConfig(n_nodes=3, seed=5, rtt_ms=50.0),
            lambda name: DynatunePolicy(),
        )
        drifts = (0.05, -0.03, 0.02)
        Scenario(
            "drift",
            [SetClock(at_ms=0.0, node=n, drift=d) for n, d in zip(cluster.names, drifts)],
        ).install(cluster)
        cluster.start()
        leader = cluster.run_until_leader()
        cluster.run_for(2_000.0)
        return next(n for n in cluster.nodes.values() if n.name != leader), leader

    (node, leader), (twin, twin_leader) = follower(), follower()
    assert node.clock.skewed and twin.clock.skewed
    assert (twin.name, twin_leader) == (node.name, leader)
    assert node._election_timer.deadline == twin._election_timer.deadline
    seq0 = node.policy.measurement.ids()[-1]
    drawn = []
    for i in range(600):  # > 2 blocks of _RAND_BLOCK draws
        meta = HeartbeatMeta(seq0 + 1 + i, 0.0, 40.0 + (i * 37 % 23), 10_000 + i)
        node._on_heartbeat(leader, HeartbeatRequest(node.current_term, leader, 0, meta))
        twin.policy.on_heartbeat(leader, meta, twin._now())
        twin._arm_election_timer()
        randomized = node.metrics.current_randomized_timeout_ms
        assert randomized == twin.metrics.current_randomized_timeout_ms
        assert node._election_timer.deadline == twin._election_timer.deadline
        drawn.append(randomized)
    assert node.policy.tuned_et_ms == twin.policy.tuned_et_ms
    assert len(set(drawn)) == len(drawn)  # Et and the draw both moved
