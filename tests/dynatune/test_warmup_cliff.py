"""Pin Dynatune's warm-up cliff: a new leader's followers run on defaults.

Every leader change resets each follower's measurement window
(``on_leader_change``), and until ``min_list_size`` RTT samples arrive the
follower's election timeout is the 1 000 ms default, not the tuned Et.
This pins both halves on a fixed seed of a 5-node, 100 ms cluster with
four crash-recover leader kills: the default holds on every heartbeat a
not-yet-ready follower sees, and the time from the new leader's election
to the last live follower's first retune stays in the band measured on
120 kills (seeds 1–30): 1 132–1 551 ms, median 1 291 ms, mean 1 287 ms.
A warm-up fix (seeding a new path from the old one, a shorter first
window, warm probes to every peer) moves these numbers; it must move this
pin on purpose.
"""

from repro.cluster.faults import crash, recover_node
from repro.dynatune.config import DEFAULT_ELECTION_TIMEOUT_MS, DynatuneConfig
from tests.conftest import make_dynatune_cluster

SEED = 3
KILLS = 4
SETTLE_MS = 4_000.0


def watch_first_retunes(cluster):
    """Check the default on every not-ready heartbeat; return the dict
    ``(follower, leader) -> time of the first ready heartbeat`` and the
    list counting the checks made."""
    firsts = {}
    checks = []
    for name in cluster.names:
        policy = cluster.node(name).policy
        on_heartbeat = policy.on_heartbeat

        def watched(leader, meta, now_ms, name=name, policy=policy, on_heartbeat=on_heartbeat):
            out = on_heartbeat(leader, meta, now_ms)
            if policy.measurement.ready:
                firsts.setdefault((name, leader), cluster.loop.now)
            else:
                assert policy.tuned_et_ms is None
                assert policy.election_timeout_ms(leader) == DEFAULT_ELECTION_TIMEOUT_MS
                checks.append(name)
            return out

        policy.on_heartbeat = watched
    return firsts, checks


def test_followers_of_a_new_leader_run_on_defaults_until_warm():
    assert DynatuneConfig().min_list_size == 10
    cluster = make_dynatune_cluster(5, rtt_ms=100.0, seed=SEED)
    firsts, checks = watch_first_retunes(cluster)
    cluster.run_until_leader()
    cluster.run_for(SETTLE_MS)
    warmups = []
    for _ in range(KILLS):
        old = cluster.leader()
        crash(cluster.node(old))
        t_kill = cluster.loop.now
        firsts.clear()
        new = cluster.run_until_leader(exclude=old)
        elected = cluster.trace.first_after(t_kill, kind="become_leader")
        assert elected.node == new
        # Right after the election no follower has a window for ``new``.
        followers = [n for n in cluster.names if n not in (old, new)]
        for name in followers:
            policy = cluster.node(name).policy
            assert policy.election_timeout_ms(new) == DEFAULT_ELECTION_TIMEOUT_MS
        checks.clear()
        cluster.run_for(3_000.0)
        assert set(checks) == set(followers)  # every follower was checked cold
        warmups.append(max(firsts[(name, new)] for name in followers) - elected.time)
        recover_node(cluster.node(old))
        cluster.run_for(SETTLE_MS)

    assert all(1_100.0 <= w <= 1_600.0 for w in warmups), warmups
    assert 1_150.0 <= sum(warmups) / KILLS <= 1_450.0, warmups
