"""Compaction benches: compact-under-load cost and snapshot vs full-replay
catch-up, with the memory trajectory recorded alongside the timings.

Each bench stores a ``tracemalloc`` high-water mark and the retained-entry
counts in ``extra_info``, so a ``--benchmark-json`` dump carries the memory
story next to the wall-clock one — the quantity this subsystem exists to
bound.
"""

import tracemalloc

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.dynatune.policy import StaticPolicy
from repro.raft.log import RaftLog
from repro.raft.state_machine import kv_put
from repro.raft.types import RaftConfig


def _cluster(*, threshold: int, margin: int = 32, n: int = 5, seed: int = 3):
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=n,
            seed=seed,
            rtt_ms=20.0,
            raft=RaftConfig(
                compaction_threshold=threshold, compaction_retain_margin=margin
            ),
        ),
        lambda name: StaticPolicy(election_timeout_ms=300.0, heartbeat_interval_ms=50.0),
    )
    cluster.start()
    return cluster


def _drive_load(cluster, client, n_ops: int, *, batch: int = 25, settle_ms: float = 400.0):
    sent = 0
    while sent < n_ops:
        for i in range(sent, min(sent + batch, n_ops)):
            client.submit(kv_put(f"k{i % 64}", i))
        sent = min(sent + batch, n_ops)
        cluster.run_for(settle_ms)
    cluster.run_for(2_000.0)


def _max_retained(cluster) -> int:
    return max(
        n.log.last_index - n.log.last_included_index for n in cluster.nodes.values()
    )


def test_log_compact_microbench(benchmark):
    """Raw ``RaftLog.compact``: the per-compaction cost at threshold scale."""

    def run():
        log = RaftLog()
        total = 0
        for round_no in range(50):
            base = log.last_index
            for i in range(1_000):
                log.append_new(1, ("k", base + i))
            total += log.compact(log.last_index - 64)
        return total, log.retained

    total, retained = benchmark(run)
    assert retained == 64
    assert total == 50 * 1_000 - 64


def test_compact_under_load(benchmark):
    """A live 5-node cluster committing 600 ops with a small threshold:
    the replication + apply + snapshot/compact pipeline end to end, with
    the retained-entry bound recorded as the memory result."""

    def run():
        cluster = _cluster(threshold=150, margin=16)
        client = cluster.add_client("cl")
        cluster.run_until_leader()
        tracemalloc.start()
        _drive_load(cluster, client, 600)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return cluster, peak

    cluster, peak = benchmark.pedantic(run, rounds=1, iterations=1)
    retained = _max_retained(cluster)
    compactions = sum(n.metrics.compactions for n in cluster.nodes.values())
    assert compactions >= 1
    assert retained <= 150 + 16 + 64
    benchmark.extra_info["tracemalloc_peak_kb"] = round(peak / 1024.0, 1)
    benchmark.extra_info["max_retained_entries"] = retained
    benchmark.extra_info["compactions"] = compactions


def test_uncompacted_baseline_memory(benchmark):
    """The same 600-op run with compaction off: the memory control the
    trajectory compares against (retained == full history)."""

    def run():
        cluster = _cluster(threshold=0)
        client = cluster.add_client("cl")
        cluster.run_until_leader()
        tracemalloc.start()
        _drive_load(cluster, client, 600)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return cluster, peak

    cluster, peak = benchmark.pedantic(run, rounds=1, iterations=1)
    retained = _max_retained(cluster)
    assert retained >= 600  # the whole history is still in memory
    benchmark.extra_info["tracemalloc_peak_kb"] = round(peak / 1024.0, 1)
    benchmark.extra_info["max_retained_entries"] = retained
    benchmark.extra_info["compactions"] = 0


def _catchup(threshold: int):
    """Crash a follower, commit 500 ops, recover, run to convergence."""
    cluster = _cluster(threshold=threshold, margin=16)
    client = cluster.add_client("cl")
    leader = cluster.run_until_leader()
    cluster.run_for(300.0)
    lagger = next(n for n in cluster.names if n != leader)
    cluster.node(lagger).crash()
    _drive_load(cluster, client, 500)
    target = max(
        n.commit_index for n in cluster.nodes.values() if n.name != lagger
    )
    follower = cluster.node(lagger)
    applied_before = follower.metrics.entries_applied
    follower.recover()
    deadline = cluster.loop.now + 20_000.0
    while cluster.loop.now < deadline and follower.last_applied < target:
        cluster.run_for(25.0)
    assert follower.last_applied >= target
    return cluster, follower.metrics.entries_applied - applied_before, follower


def test_snapshot_catchup(benchmark):
    """Follower rejoin after 500 committed ops, compaction on: one
    InstallSnapshot plus a margin-scale tail."""
    cluster, replayed, follower = benchmark.pedantic(
        lambda: _catchup(threshold=100), rounds=1, iterations=1
    )
    assert follower.metrics.snapshots_installed >= 1
    assert replayed <= 100  # margin + in-flight tail, not the history
    benchmark.extra_info["replayed_entries"] = replayed
    benchmark.extra_info["max_retained_entries"] = _max_retained(cluster)


def test_full_replay_catchup(benchmark):
    """The control: same rejoin with compaction off — the follower replays
    the entire committed history entry by entry."""
    cluster, replayed, follower = benchmark.pedantic(
        lambda: _catchup(threshold=0), rounds=1, iterations=1
    )
    assert follower.metrics.snapshots_installed == 0
    assert replayed >= 500  # the whole history replays
    benchmark.extra_info["replayed_entries"] = replayed
    benchmark.extra_info["max_retained_entries"] = _max_retained(cluster)
