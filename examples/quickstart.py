#!/usr/bin/env python
"""Quickstart: a five-node Dynatune cluster surviving a leader failure.

This walks the library's core loop end to end:

1. build a cluster (one call — Dynatune vs Raft is just the policy);
2. run a replicated KV workload through a client;
3. watch Dynatune tune the election timeout down to network scale;
4. kill the leader and measure how fast the service recovers;
5. verify that every replica holds the same data.

Run:  python examples/quickstart.py
"""

from repro import ClusterConfig, DynatunePolicy, build_cluster
from repro.cluster.faults import pause_for
from repro.cluster.measurements import LEADER_FAILURE_KIND, extract_failure_episodes
from repro.fuzz.history import OpHistory
from repro.raft.state_machine import kv_get, kv_put


def main() -> None:
    # 1. A five-server cluster with 100 ms RTT between every pair — the
    #    paper's §IV-B testbed.  Dynatune's defaults match the paper:
    #    s = 2, x = 0.999, minListSize = 10, maxListSize = 1000.
    cluster = build_cluster(
        ClusterConfig(n_nodes=5, seed=2024, rtt_ms=100.0),
        lambda name: DynatunePolicy(),
    )
    # The client records each operation (times and result) in its history.
    history = OpHistory()
    client = cluster.add_client("client", history=history)
    cluster.start()

    leader = cluster.run_until_leader()
    print(f"[t={cluster.loop.now / 1000:6.2f}s] leader elected: {leader}")

    # 2. Replicate some state.
    for i in range(10):
        client.submit(kv_put(f"user:{i}", {"id": i, "active": True}))
    cluster.run_for(2_000)
    done = history.completed_ops()
    mean_ms = sum(op.return_ms - op.invoke_ms for op in done) / len(done)
    print(
        f"[t={cluster.loop.now / 1000:6.2f}s] {len(done)} writes "
        f"committed, mean latency {mean_ms:.0f} ms"
    )

    # 3. Let Dynatune measure and tune (10 RTT samples needed, ~1 s).
    cluster.run_for(6_000)
    for name in cluster.names:
        node = cluster.node(name)
        if name != leader:
            print(
                f"    {name}: tuned election timeout = "
                f"{node.policy.tuned_et_ms:7.1f} ms "
                f"(default was 1000 ms; RTT is 100 ms)"
            )

    # 4. Fail the leader the way the paper does (container sleep) and time
    #    the recovery from the trace, like the paper reads server logs.
    print(f"[t={cluster.loop.now / 1000:6.2f}s] killing leader {leader}...")
    pause_for(cluster.loop, cluster.node(leader), 8_000.0, kind=LEADER_FAILURE_KIND)
    new_leader = cluster.run_until_leader(exclude=leader, timeout_ms=30_000)
    episode = extract_failure_episodes(cluster.trace, cluster_size=5)[0]
    print(
        f"[t={cluster.loop.now / 1000:6.2f}s] new leader: {new_leader} — "
        f"detection {episode.detection_latency_ms:.0f} ms, "
        f"out-of-service {episode.ots_ms:.0f} ms"
    )

    # 5. The service keeps working and the replicas agree.
    client.submit(kv_put("after-failover", True))
    client.submit(kv_get("user:7"))
    cluster.run_for(4_000)
    get = next(op for op in history.completed_ops() if op.op == "get")
    print(f"    read user:7 -> {get.result}")

    cluster.run_for(10_000)  # old leader rejoins and catches up
    snapshots = [cluster.node(n).state_machine.snapshot() for n in cluster.names]
    assert all(s == snapshots[0] for s in snapshots), "replicas diverged!"
    print(f"    all 5 replicas agree on {len(snapshots[0])} keys ✓")


if __name__ == "__main__":
    main()
