#!/usr/bin/env python
"""Watch Dynatune adapt live to RTT and loss fluctuations (§IV-C).

The network degrades in three acts while the cluster serves:

  act 1 — RTT ramps 50 -> 150 ms (gradual congestion);
  act 2 — packet loss climbs to 20 % (flaky WAN segment);
  act 3 — everything recovers.

Every five virtual seconds the script prints the ground truth next to what
Dynatune inferred: the measured loss rate, the tuned election timeout of
one follower, and the heartbeat interval the leader applies to it.  The
run ends with a spike drill proving the pre-vote guard (Fig. 6b): a sudden
10× RTT jump causes false detections but no leader change and no outage.

Run:  python examples/adaptive_tuning.py
"""

from repro import ClusterConfig, DynatunePolicy, build_cluster
from repro.cluster.measurements import leaderless_intervals, total_interval_length
from repro.dynatune.config import DynatuneConfig
from repro.scenarios import Scenario, SetLoss, SetRtt

SAMPLE_MS = 5_000.0


def main() -> None:
    # A smaller measurement window (120 samples) keeps the demo snappy;
    # the paper's 1000-sample window adapts the same way, just slower.
    cluster = build_cluster(
        ClusterConfig(n_nodes=5, seed=99, rtt_ms=50.0),
        lambda name: DynatunePolicy(DynatuneConfig(max_list_size=120)),
    )
    Scenario(
        "three-acts",
        [
            SetRtt(at_ms=20_000.0, rtt_ms=100.0),  # congestion builds
            SetRtt(at_ms=35_000.0, rtt_ms=150.0),  # congestion peak
            SetLoss(at_ms=50_000.0, loss=0.20),  # flaky segment
            SetRtt(at_ms=70_000.0, rtt_ms=50.0),  # recovery
            SetLoss(at_ms=70_000.0, loss=0.0),
        ],
    ).install(cluster)
    cluster.start()
    leader = cluster.run_until_leader()
    watched = next(n for n in cluster.names if n != leader)
    follower = cluster.node(watched)
    leader_node = cluster.node(leader)
    truth = cluster.network.link(leader, watched)  # every link is set alike

    print(f"leader={leader}, watching follower {watched}")
    print(
        f"{'t(s)':>5} {'true RTT':>9} {'true loss':>10} | "
        f"{'measured p':>10} {'tuned Et':>9} {'applied h':>10}"
    )
    while cluster.loop.now < 90_000.0:
        cluster.run_for(SAMPLE_MS)
        pol = follower.policy
        _, _, measured_p = pol.measurement.estimate()
        et = pol.tuned_et_ms
        h = leader_node.policy.applied_h_ms(watched)
        print(
            f"{cluster.loop.now / 1000:5.0f} "
            f"{truth.rtt_ms:>7.0f}ms "
            f"{truth.loss.rate():>9.0%} | "
            f"{measured_p:>9.1%} "
            f"{(f'{et:7.0f}ms' if et is not None else '  (warm)'):>9} "
            f"{(f'{h:8.0f}ms' if h is not None else ' default'):>10}"
        )

    # --- spike drill: Fig. 6b in miniature ---------------------------- #
    print("\nspike drill: RTT 50 -> 500 ms for 15 s")
    t0 = cluster.loop.now
    term_before = leader_node.current_term
    cluster.network.set_all_rtt(500.0)
    cluster.run_for(15_000.0)
    cluster.network.set_all_rtt(50.0)
    cluster.run_for(10_000.0)
    timeouts = [r for r in cluster.trace.of_kind("election_timeout") if r.time > t0]
    elections = [r for r in cluster.trace.of_kind("election_start") if r.time > t0]
    ots = total_interval_length(
        leaderless_intervals(cluster.trace, t_start=t0, t_end=cluster.loop.now)
    )
    print(f"  false detections : {len(timeouts)}")
    print(f"  elections        : {len(elections)}")
    print(f"  leader changes   : {int(leader_node.current_term != term_before)}")
    print(f"  out-of-service   : {ots:.0f} ms")
    print("  -> the pre-vote phase absorbed every false alarm (paper Fig. 6b)")


if __name__ == "__main__":
    main()
