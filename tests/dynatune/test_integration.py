"""Dynatune end-to-end in live clusters: convergence and adaptation."""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.dynatune.config import DynatuneConfig
from repro.dynatune.policy import DynatunePolicy
from repro.raft.types import Role
from tests.conftest import add_recorded_client, completed_ops, make_dynatune_cluster


def follower_policies(c, leader):
    return [c.node(n).policy for n in c.names if n != leader]


def test_followers_tune_et_to_rtt():
    c = make_dynatune_cluster(5, rtt_ms=100.0)
    leader = c.run_until_leader()
    c.run_for(8_000)
    for pol in follower_policies(c, leader):
        assert pol.tuned_et_ms is not None
        assert 95.0 <= pol.tuned_et_ms <= 115.0  # ≈ RTT + 2σ


def test_leader_applies_tuned_h_per_follower():
    c = make_dynatune_cluster(5, rtt_ms=100.0)
    leader = c.run_until_leader()
    c.run_for(8_000)
    lp = c.node(leader).policy
    for peer in c.node(leader).peers:
        applied = lp.applied_h_ms(peer)
        assert applied is not None
        assert 95.0 <= applied <= 115.0  # K = 1 at zero loss -> h ≈ Et


def test_tuning_tracks_rtt_change():
    c = make_dynatune_cluster(5, rtt_ms=50.0, dynatune=DynatuneConfig(max_list_size=60))
    leader = c.run_until_leader()
    c.run_for(6_000)
    before = [p.tuned_et_ms for p in follower_policies(c, leader)]
    assert all(et is not None and et < 70.0 for et in before)
    c.network.set_all_rtt(150.0)
    c.run_for(40_000)  # window (60 samples) fully turns over
    after = [p.tuned_et_ms for p in follower_policies(c, leader)]
    assert all(et is not None and et > 140.0 for et in after)


def test_loss_raises_heartbeat_rate():
    c = make_dynatune_cluster(5, rtt_ms=100.0, seed=9)
    leader = c.run_until_leader()
    c.run_for(8_000)
    lp = c.node(leader).policy
    h_before = [lp.heartbeat_interval_ms(p) for p in c.node(leader).peers]
    c.network.set_all_loss(0.25)
    c.run_for(60_000)
    h_after = [lp.heartbeat_interval_ms(p) for p in c.node(leader).peers]
    # 25% loss -> K = 5 -> h ≈ Et/5.
    assert min(h_before) > 90.0
    assert max(h_after) < 40.0


def test_detection_much_faster_than_raft_defaults():
    c = make_dynatune_cluster(5, rtt_ms=100.0)
    leader = c.run_until_leader()
    c.run_for(8_000)
    from repro.cluster.faults import pause_for
    from repro.cluster.measurements import LEADER_FAILURE_KIND

    pause_for(c.loop, c.node(leader), 6_000.0, kind=LEADER_FAILURE_KIND)
    c.run_until_leader(exclude=leader, timeout_ms=30_000)
    fail = c.trace.of_kind(LEADER_FAILURE_KIND)[0]
    det = c.trace.first_after(fail.time, kind="election_timeout")
    assert det is not None
    assert det.time - fail.time < 400.0  # vs ~1200 ms for Raft defaults


def test_no_unnecessary_elections_under_stable_loss():
    """§IV-C2: with h auto-tuned, heavy loss does not trigger elections."""
    c = make_dynatune_cluster(5, rtt_ms=200.0, loss=0.2, seed=3)
    c.run_until_leader()
    t0 = c.loop.now
    c.run_for(60_000)
    elections = [r for r in c.trace.of_kind("election_start") if r.time > t0]
    assert elections == []


def test_duplicated_heartbeats_do_not_skew_measurement():
    c = make_dynatune_cluster(5, rtt_ms=100.0, seed=4)
    c.network.set_all_duplicate(0.3)
    leader = c.run_until_leader()
    c.run_for(8_000)
    for pol in follower_policies(c, leader):
        # duplicates ignored: measured loss stays ~0, K stays 1.
        assert pol.measurement.duplicates_ignored > 0
        assert pol.measurement.estimate()[2] < 0.02
        assert pol.tuned_et_ms is not None and pol.tuned_et_ms < 120.0


def test_fallback_after_leader_failure_then_retune():
    c = make_dynatune_cluster(5, rtt_ms=100.0)
    leader = c.run_until_leader()
    c.run_for(8_000)
    from repro.cluster.faults import pause_for
    from repro.cluster.measurements import LEADER_FAILURE_KIND

    pause_for(c.loop, c.node(leader), 6_000.0, kind=LEADER_FAILURE_KIND)
    new = c.run_until_leader(exclude=leader, timeout_ms=30_000)
    c.run_for(8_000)
    # Followers of the new leader re-measured and re-tuned.
    for pol in follower_policies(c, new):
        node_names = [n for n in c.names if n != new]
        assert pol.tuned_et_ms is None or pol.tuned_et_ms < 150.0
    new_followers = [
        c.node(n) for n in c.names if n != new and c.node(n).alive
    ]
    tuned = [n.policy.tuned_et_ms for n in new_followers]
    assert any(et is not None for et in tuned)


def test_split_vote_retry_uses_default_timeout():
    """After a fallback, the retry randomizedTimeout comes from the default
    1000 ms Et — visible in the election_timeout trace records."""
    c = make_dynatune_cluster(5, rtt_ms=100.0, seed=11)
    leader = c.run_until_leader()
    c.run_for(8_000)
    from repro.cluster.faults import pause_for

    fail_time = c.loop.now
    pause_for(c.loop, c.node(leader), 6_000.0)
    c.run_until_leader(exclude=leader, timeout_ms=30_000)
    timeouts = [
        r for r in c.trace.of_kind("election_timeout") if r.time >= fail_time
    ]
    # First detection used a tuned (small) randomizedTimeout...
    assert timeouts[0].get("randomized_timeout_ms") < 300.0
    # ...any later candidate-retry timeout used the fallback default range.
    retries = [r for r in timeouts if r.get("role") in ("candidate", "precandidate")]
    for r in retries:
        assert r.get("randomized_timeout_ms") >= 1000.0


def test_dynatune_cluster_remains_consistent():
    from repro.raft.state_machine import kv_put

    c = make_dynatune_cluster(5, rtt_ms=50.0)
    client = add_recorded_client(c, "cl")
    c.run_until_leader()
    for i in range(20):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(5_000)
    assert len(completed_ops(client)) == 20
    snaps = [c.node(n).state_machine.snapshot() for n in c.names]
    assert all(s == snaps[0] for s in snaps)


def test_each_follower_is_beaten_at_its_own_tuned_h():
    """On the AWS geo topology every path tunes its own h, and each
    follower's own leader timer beats it at that h — not at a shared one."""
    c = build_cluster(
        ClusterConfig(n_nodes=5, seed=5, topology="aws"), lambda name: DynatunePolicy()
    )
    c.start()
    leader = c.run_until_leader()
    c.run_for(20_000)
    lp = c.node(leader).policy
    h = {peer: lp.heartbeat_interval_ms(peer) for peer in c.node(leader).peers}
    assert max(h.values()) > 1.3 * min(h.values())  # paths genuinely differ
    before = {peer: c.node(peer).metrics.heartbeats_received for peer in h}
    c.run_for(10_000)
    for peer, interval in h.items():
        received = c.node(peer).metrics.heartbeats_received - before[peer]
        assert received == pytest.approx(10_000.0 / interval, rel=0.1)
