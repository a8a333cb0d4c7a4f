"""Dynatune under membership churn: no leaks, no floor violations.

The two hygiene promises the elastic experiments lean on:

* a committed ``remove`` drops the leader-side per-peer tuning state, so
  a long-lived policy does not accumulate one ``_FollowerPathState`` per
  node the cluster ever churned through (names are never reused);
* a fresh joiner's empty measurement window never produces a tuned pair
  violating ``K·h ≤ Et`` or an ``Et`` below the floor — the Step-0
  defaults rule until the window is genuinely ready.
"""

from repro.dynatune.config import ET_FLOOR_MS
from repro.dynatune.policy import DynatunePolicy, StaticPolicy
from repro.scenarios.library import elastic_grow
from tests.conftest import make_dynatune_cluster


def test_on_peer_removed_drops_leader_side_path_state():
    policy = DynatunePolicy()
    policy.heartbeat_meta("n7", now_ms=0.0)  # creates the per-peer state
    assert "n7" in policy._paths
    policy.on_peer_removed("n7")
    assert "n7" not in policy._paths
    assert policy.applied_h_ms("n7") is None
    policy.on_peer_removed("n7")  # idempotent


def test_static_policy_accepts_peer_removal():
    StaticPolicy().on_peer_removed("n7")  # stateless no-op, must not raise


def test_committed_removal_cleans_every_live_policy():
    c = make_dynatune_cluster(5)
    c.enable_membership()
    leader = c.run_until_leader()
    c.run_for(5_000)  # let the leader build per-follower path state
    victim = next(n for n in c.names if n != leader)
    assert victim in c.node(leader).policy._paths
    assert c.node(leader).propose_config_change("remove", victim)
    c.run_for(4_000)
    for name in c.members():
        assert victim not in c.node(name).policy._paths


def tuned_pairs(cluster):
    """Every (node, Et, h, effective_k) currently tuned somewhere."""
    out = []
    for name in cluster.members():
        policy = cluster.node(name).policy
        et = policy.tuned_et_ms
        tuning = policy.last_tuning
        if et is not None and tuning is not None:
            out.append((name, et, tuning.h_ms, tuning.effective_k))
    return out


def test_k_times_h_never_exceeds_et_across_a_grow_event():
    c = make_dynatune_cluster(3)
    elastic_grow(["n1", "n2", "n3"], start_ms=2_000, gap_ms=5_000, joiners=2).install(c)
    floor = ET_FLOOR_MS
    # Sample the whole grow window: the joiners pass through exactly the
    # fresh-window regime the floor guards against.
    violations = []
    for _ in range(60):
        c.run_for(250)
        for name, et, h, k in tuned_pairs(c):
            if et < floor:
                violations.append(f"{name}: Et {et:.3f} below floor {floor}")
            if k * h > et + 1e-9:
                violations.append(f"{name}: K·h = {k}·{h:.3f} exceeds Et {et:.3f}")
    assert not violations, violations
    # The grow actually happened, and the joiners ended up tuned.
    assert c.members() == ["n1", "n2", "n3", "n4", "n5"]
    tuned_nodes = {name for name, *_ in tuned_pairs(c)}
    assert {"n4", "n5"} & tuned_nodes
