"""LivenessChecker: flags stalls the cluster *could* avoid, and only those.

Every detector is gated on quorum connectivity, so the tests come in
pairs: a staged gray failure that must flag, and the corresponding
genuine outage (full partition, lost quorum) that must stay silent —
a cluster that cannot elect is allowed to idle.
"""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.dynatune.policy import StaticPolicy
from repro.raft.state_machine import kv_put
from repro.raft.types import RaftConfig
from repro.scenarios.liveness import LivenessChecker
from tests.conftest import make_raft_cluster


def _sleepy_cluster(n: int = 3, **config_kwargs):
    """A cluster whose nodes never time out — followers forever."""
    cluster = build_cluster(
        ClusterConfig(n_nodes=n, seed=5, rtt_ms=20.0, **config_kwargs),
        lambda name: StaticPolicy(
            election_timeout_ms=10_000_000.0, heartbeat_interval_ms=50.0
        ),
    )
    cluster.start()
    return cluster


def test_validation():
    c = make_raft_cluster(3)
    with pytest.raises(ValueError):
        LivenessChecker(c, leaderless_bound_ms=-1.0)
    with pytest.raises(ValueError):
        LivenessChecker(c, leaderless_total_bound_ms=0.0)
    with pytest.raises(ValueError):
        LivenessChecker(c, term_churn_bound=0)
    with pytest.raises(ValueError):
        LivenessChecker(c, commit_stall_bound_ms=0.0)


def test_healthy_cluster_is_clean():
    c = make_raft_cluster(3)
    checker = LivenessChecker(
        c,
        leaderless_bound_ms=2_000.0,
        leaderless_total_bound_ms=4_000.0,
        commit_stall_bound_ms=2_000.0,
    )
    checker.install()
    client = c.add_client("cl")
    c.run_until_leader()
    for i in range(5):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(8_000.0)
    checker.assert_live()


def test_quorum_connected_semantics():
    c = make_raft_cluster(3)
    checker = LivenessChecker(c)
    assert checker.quorum_connected()
    # One node fully cut off: the other two still assemble a quorum.
    c.network.set_partitions([{"n1"}])
    assert checker.quorum_connected()
    # Singleton split: nobody can collect a second vote.
    c.network.set_partitions([{"n1"}, {"n2"}, {"n3"}])
    assert not checker.quorum_connected()
    c.network.clear_partitions()
    assert checker.quorum_connected()
    # One-way blocks count: a pair needs BOTH directions usable.  n1's
    # egress is dead and the n2<->n3 round trip is severed one-way, so no
    # mutually usable pair remains even though 4 of 6 directions are up.
    c.network.block_direction("n1", "n2")
    c.network.block_direction("n1", "n3")
    assert checker.quorum_connected()  # n2 + n3 still mutual
    c.network.block_direction("n2", "n3")
    assert not checker.quorum_connected()
    c.network.unblock_direction("n2", "n3")
    # Crashed voters cannot contribute even over perfect links.
    c.node("n2").crash()
    c.node("n3").crash()
    assert not checker.quorum_connected()


def test_flags_no_leader_window_and_cumulative_budget():
    """Followers that simply never campaign over a perfect network are a
    liveness bug by definition — both the single-window and cumulative
    detectors must fire (once each, not once per sample)."""
    c = _sleepy_cluster(3)
    checker = LivenessChecker(
        c,
        leaderless_bound_ms=1_000.0,
        leaderless_total_bound_ms=3_000.0,
    )
    checker.install()
    c.run_until(6_000.0)
    kinds = [v.kind for v in checker.violations]
    assert kinds == ["no_leader", "no_leader"]
    window, total = checker.violations
    # Leaderless from the first sample on; each bound trips within a sample.
    first = checker.interval_ms
    assert window.time == pytest.approx(first + 1_000.0, abs=checker.interval_ms)
    assert total.time == pytest.approx(first + 3_000.0, abs=checker.interval_ms)
    assert len(c.trace.of_kind("liveness_no_leader")) == 2


def test_genuine_partition_never_false_positives():
    """A singleton split leaves the cluster leaderless for as long as the
    run lasts — and that is the *correct* behaviour, so every detector
    must stay silent."""
    c = make_raft_cluster(3)
    c.run_until_leader()
    checker = LivenessChecker(
        c,
        leaderless_bound_ms=800.0,
        leaderless_total_bound_ms=1_500.0,
        term_churn_bound=2,
        commit_stall_bound_ms=800.0,
    )
    checker.install()
    c.network.set_partitions([{"n1"}, {"n2"}, {"n3"}])
    c.run_for(10_000.0)
    assert not checker.quorum_connected()
    checker.assert_live()


def test_flags_election_livelock_under_gray_response_cycle():
    """Without prevote, a cycle of nearly-dead response directions keeps
    every candidacy unanswered while terms ratchet — and since every
    direction still has loss < 1.0 the quorum counts as connected, which
    is exactly the gray shape the livelock detector exists for."""
    c = make_raft_cluster(3, raft=RaftConfig(prevote=False))
    for src, dst in (("n1", "n2"), ("n2", "n3"), ("n3", "n1")):
        c.network.degrade_direction(src, dst, loss=0.998)
    checker = LivenessChecker(
        c,
        leaderless_bound_ms=1e9,
        leaderless_total_bound_ms=1e9,
        term_churn_bound=5,
    )
    checker.install()
    c.run_until(20_000.0)
    assert checker.quorum_connected()
    kinds = {v.kind for v in checker.violations}
    assert "election_livelock" in kinds
    assert c.trace.of_kind("liveness_election_livelock")


def test_flags_commit_stall_under_gray_egress():
    """A leader whose appends mostly die on the wire (but whose links are
    not *down*) stalls the commit watermark with uncommitted entries
    pending — the third gray shape.  check_quorum is off so the leader
    does not step down and turn this into a no-leader episode."""
    c = make_raft_cluster(3, raft=RaftConfig(check_quorum=False))
    client = c.add_client("cl")
    c.run_until_leader()
    client.submit(kv_put("k", 1))
    c.run_for(2_000.0)
    baseline = max(c.node(n).commit_index for n in c.names)
    assert baseline > 0
    for src in c.names:
        for dst in c.names:
            if src != dst:
                c.network.degrade_direction(src, dst, loss=0.998)
    checker = LivenessChecker(
        c,
        leaderless_bound_ms=1e9,
        leaderless_total_bound_ms=1e9,
        commit_stall_bound_ms=1_500.0,
    )
    checker.install()
    client.submit(kv_put("k", 2))
    c.run_for(10_000.0)
    kinds = {v.kind for v in checker.violations}
    assert "commit_stall" in kinds
    assert c.trace.of_kind("liveness_commit_stall")
    assert max(c.node(n).commit_index for n in c.names) == baseline
