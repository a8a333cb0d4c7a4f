"""Client-serving fast path: batching, pipelining, ReadIndex/lease reads.

Every knob here defaults off; these tests opt in per-cluster and check
both the mechanics (windows, probes, flush points) and the client-visible
guarantees (nothing lost across leader changes, no stale reads).
"""

import math

import pytest

from repro.dynatune.config import DynatuneConfig
from repro.dynatune.metadata import HeartbeatResponseMeta
from repro.dynatune.policy import DynatunePolicy, StaticPolicy
from repro.raft.node import _CLIENT_BATCH_MAX
from repro.raft.state_machine import kv_get, kv_put
from repro.raft.types import RaftConfig
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


@pytest.mark.parametrize("field", ["client_batch_window_ms", "lease_drift_margin_ms"])
@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_serving_windows_reject_nan_and_negative(field, bad):
    with pytest.raises(ValueError, match=field):
        RaftConfig(**{field: bad})


# --------------------------------------------------------------------- #
# leader-side append batching
# --------------------------------------------------------------------- #


def test_batching_completes_all_commands():
    c = make_raft_cluster(
        5, raft=RaftConfig(client_batching=True, client_batch_window_ms=5.0)
    )
    clients = [add_recorded_client(c, f"cl{i}") for i in range(8)]
    leader = c.run_until_leader()
    c.run_for(500.0)
    for i, client in enumerate(clients):
        for j in range(8):
            client.submit(kv_put(f"k{i}", j))
    c.run_for(3_000.0)
    assert all(len(completed_ops(cl)) == 8 for cl in clients)
    m = c.node(leader).metrics
    assert m.batched_commands == 64
    assert m.batches_flushed >= 1
    # Batching is the point: far fewer than one flush per command.
    assert m.batches_flushed <= 16


def test_batching_sends_fewer_appends_than_unbatched():
    def run(batching: bool) -> int:
        c = make_raft_cluster(
            5,
            raft=RaftConfig(
                client_batching=batching, client_batch_window_ms=5.0
            ),
        )
        clients = [add_recorded_client(c, f"cl{i}") for i in range(8)]
        leader = c.run_until_leader()
        c.run_for(500.0)
        base = c.node(leader).metrics.appends_sent
        for i, client in enumerate(clients):
            for j in range(8):
                client.submit(kv_put(f"k{i}", j))
        c.run_for(3_000.0)
        assert all(len(completed_ops(cl)) == 8 for cl in clients)
        return c.node(leader).metrics.appends_sent - base

    batched = run(True)
    unbatched = run(False)
    assert batched * 2 < unbatched


def test_batch_max_forces_immediate_flush():
    c = make_raft_cluster(
        3,
        raft=RaftConfig(
            client_batching=True,
            client_batch_window_ms=10_000.0,  # timer would never fire in time
        ),
    )
    client = c.add_client("cl")
    leader = c.run_until_leader()
    c.run_for(500.0)
    node = c.node(leader)
    # Deliver a full batch in one event-loop instant: it flushes without
    # waiting for the window timer or the next beat.
    from repro.raft.messages import ClientRequest

    for rid in range(_CLIENT_BATCH_MAX):
        node.deliver("cl", ClientRequest(request_id=rid, command=kv_put("x", rid)))
    assert node.metrics.batches_flushed == 1
    assert node.metrics.batched_commands == _CLIENT_BATCH_MAX
    assert node._batch_buf == []
    client.submit(kv_put("y", 1))
    c.run_for(2_000.0)
    assert node.state_machine.peek("x") == _CLIENT_BATCH_MAX - 1


def test_buffered_commands_survive_leader_change():
    # Commands buffered (or pending) at the moment the leader falls away
    # must fail back to the client and complete via retry at the new
    # leader — never silently vanish.
    c = make_raft_cluster(
        5,
        seed=7,
        raft=RaftConfig(client_batching=True, client_batch_window_ms=5.0),
    )
    client = add_recorded_client(c, "cl", retry_timeout_ms=300.0)
    leader = c.run_until_leader()
    c.run_for(500.0)
    client._contact = leader
    for j in range(5):
        client.submit(kv_put("k", j))
    # Cut the leader (and the in-flight batch machinery) off immediately.
    c.network.set_partitions([{leader}])
    c.run_for(8_000.0)
    assert len(completed_ops(client)) == 5
    new_leader = c.leader()
    assert new_leader is not None and new_leader != leader
    # The five retried writes reach the new leader concurrently, so any
    # of them may apply last — but all five must have been applied.
    assert c.node(new_leader).state_machine.peek("k") in range(5)
    assert c.node(new_leader).state_machine.applied_count >= 5


# --------------------------------------------------------------------- #
# replication pipelining
# --------------------------------------------------------------------- #


def test_pipelining_streams_multiple_windows_at_once():
    c = make_raft_cluster(3, raft=RaftConfig(replication_pipelining=True))
    leader = c.run_until_leader()
    c.run_for(500.0)
    node = c.node(leader)
    peer = node.peers[0]
    for j in range(200):
        node.log.append_new(node.current_term, kv_put("x", j))
    node._send_append(node.progress[peer])
    # 200 entries / 64-entry windows: the whole backlog streams out
    # immediately instead of one-window-per-ack.
    assert node.progress[peer].inflight == 4
    c.run_for(2_000.0)
    assert c.node(peer).log.last_index == node.log.last_index
    assert node.commit_index == node.log.last_index


def test_unpipelined_sends_single_window():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    c.run_for(500.0)
    node = c.node(leader)
    peer = node.peers[0]
    for j in range(200):
        node.log.append_new(node.current_term, kv_put("x", j))
    node._send_append(node.progress[peer])
    assert node.progress[peer].inflight == 1
    c.run_for(2_000.0)
    assert c.node(peer).log.last_index == node.log.last_index


def test_pipelining_recovers_after_rejection():
    # A follower that was cut off rejoins behind the stream: the leader's
    # optimistic next_index gets rejected, probe mode re-anchors it, and
    # the follower still converges.
    c = make_raft_cluster(3, raft=RaftConfig(replication_pipelining=True))
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    c.run_for(500.0)
    lagging = c.node(leader).peers[0]
    c.network.set_partitions([(set(c.names) - {lagging}) | {"cl"}])
    for j in range(30):
        client.submit(kv_put("x", j))
    c.run_for(6_000.0)
    assert len(completed_ops(client)) == 30
    c.network.set_partitions([])
    c.run_for(3_000.0)
    node = c.node(leader)
    assert c.node(lagging).log.last_index == node.log.last_index
    # Concurrent retried writes apply in an arbitrary (but agreed) order.
    assert c.node(lagging).state_machine.peek("x") == node.state_machine.peek("x")
    assert not any(pr.probing for pr in node.progress.values())  # probe mode exited after re-anchor


def test_pipelining_falls_back_to_snapshot_transfer():
    # When the lagging follower's entries are compacted away, the pipeline
    # must hand off to InstallSnapshot instead of spinning on appends.
    c = make_raft_cluster(
        3,
        raft=RaftConfig(
            replication_pipelining=True,
            compaction_threshold=20,
            compaction_retain_margin=5,
        ),
    )
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    c.run_for(500.0)
    lagging = c.node(leader).peers[0]
    c.network.set_partitions([(set(c.names) - {lagging}) | {"cl"}])
    for j in range(80):
        client.submit(kv_put(f"x{j}", j))
    c.run_for(6_000.0)
    assert len(completed_ops(client)) == 80
    node = c.node(leader)
    assert node.log.first_index > 1  # compaction actually ran
    c.network.set_partitions([])
    c.run_for(4_000.0)
    assert any(r.node == leader for r in c.trace.of_kind("snapshot_send"))
    assert c.node(lagging).metrics.snapshots_installed >= 1
    assert c.node(lagging).state_machine.peek("x79") == 79


def test_pipelining_with_batching_under_load():
    c = make_raft_cluster(
        5,
        raft=RaftConfig(
            client_batching=True,
            client_batch_window_ms=2.0,
            replication_pipelining=True,
        ),
    )
    clients = [add_recorded_client(c, f"cl{i}") for i in range(4)]
    c.run_until_leader()
    c.run_for(500.0)
    for i, client in enumerate(clients):
        for j in range(25):
            client.submit(kv_put(f"k{i}", j))
    c.run_for(5_000.0)
    assert all(len(completed_ops(cl)) == 25 for cl in clients)
    leader = c.leader()
    node = c.node(leader)
    assert node.commit_index == node.log.last_index


# --------------------------------------------------------------------- #
# ReadIndex fast path
# --------------------------------------------------------------------- #


def test_readindex_serves_without_log_entry():
    c = make_raft_cluster(5)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    c.run_for(500.0)
    client.submit(kv_put("x", 41))
    c.run_for(2_000.0)
    node = c.node(leader)
    before = node.log.last_index
    client.submit(kv_get("x"), read=True)
    c.run_for(2_000.0)
    assert len(completed_ops(client)) == 2
    assert completed_ops(client)[1].result == 41
    assert node.log.last_index == before  # no entry appended for the read
    assert node.metrics.reads_served_readindex >= 1
    assert node.metrics.read_probes_sent >= 1


def test_readindex_redirects_from_follower():
    c = make_raft_cluster(5)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    c.run_for(500.0)
    client.submit(kv_put("x", 7))
    c.run_for(2_000.0)
    follower = next(n for n in c.names if n != leader)
    client._contact = follower
    client.submit(kv_get("x"), read=True)
    c.run_for(2_000.0)
    assert completed_ops(client)[-1].result == 7
    assert c.node(follower).metrics.client_redirects >= 1


def test_readindex_blocks_in_minority_partition():
    # A deposed-but-unaware leader must never serve a fast-path read: with
    # no quorum reachable the probe round cannot confirm, so the read
    # blocks until the client reaches the real leader — and then reflects
    # the newer write, not the stale state.
    c = make_raft_cluster(5, seed=11)
    reader = add_recorded_client(c, "cl", retry_timeout_ms=400.0)
    writer = c.add_client("cl2")
    old_leader = c.run_until_leader()
    c.run_for(500.0)
    writer.submit(kv_put("x", 1))
    c.run_for(2_000.0)
    # Island the old leader together with the reading client.
    c.network.set_partitions([{old_leader, "cl"}])
    c.run_for(2_000.0)
    new_leader = c.leader()
    assert new_leader is not None and new_leader != old_leader
    writer.submit(kv_put("x", 2))
    c.run_for(2_000.0)
    assert c.node(new_leader).state_machine.peek("x") == 2
    reader._contact = old_leader
    reader.submit(kv_get("x"), read=True)
    c.run_for(1_000.0)
    # Still partitioned: the read must not have produced a (stale) answer.
    assert completed_ops(reader) == []
    c.network.set_partitions([])
    c.run_for(5_000.0)
    assert len(completed_ops(reader)) == 1
    assert completed_ops(reader)[0].result == 2  # linearizable: sees the write


def test_reads_flushed_on_step_down():
    # Reads pending in a round (or buffered for the next) fail back to
    # the client when leadership is torn down, like buffered writes.
    c = make_raft_cluster(5, seed=11)
    reader = c.add_client("cl", retry_timeout_ms=400.0)
    old_leader = c.run_until_leader()
    c.run_for(500.0)
    c.network.set_partitions([{old_leader, "cl"}])
    reader._contact = old_leader
    reader.submit(kv_get("x"), read=True)
    c.run_for(4_000.0)  # check-quorum tears the old leader down
    node = c.node(old_leader)
    assert node.role.value != "leader"
    assert node.metrics.reads_failed >= 1
    assert node._read_round is None and node._read_buf == []


# --------------------------------------------------------------------- #
# leader-lease reads
# --------------------------------------------------------------------- #


def test_lease_reads_skip_probe_round():
    c = make_raft_cluster(5, raft=RaftConfig(lease_reads=True))
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    c.run_for(500.0)
    client.submit(kv_put("x", 5))
    c.run_for(2_000.0)
    client.submit(kv_get("x"), read=True)
    c.run_for(2_000.0)
    assert completed_ops(client)[-1].result == 5
    node = c.node(leader)
    assert node.metrics.reads_served_lease >= 1
    assert node.metrics.read_probes_sent == 0  # lease made the round moot


def test_lease_invalid_when_responses_stale():
    c = make_raft_cluster(5, raft=RaftConfig(lease_reads=True))
    leader = c.run_until_leader()
    c.run_for(500.0)
    node = c.node(leader)
    assert node._lease_valid_for_reads()
    # Age every voter response beyond any plausible lease duration: the
    # leader's clock jumps 10 s past them.
    node.clock.set(offset_ms=10_000.0)
    assert not node._lease_valid_for_reads()


def test_lease_requires_check_quorum():
    # Without check-quorum, voters never refuse rivals, so the lease has
    # no exclusivity to stand on and must report invalid.
    c = make_raft_cluster(
        5, raft=RaftConfig(lease_reads=True, check_quorum=False)
    )
    leader = c.run_until_leader()
    c.run_for(500.0)
    assert not c.node(leader)._lease_valid_for_reads()


def test_lease_fallback_serves_via_readindex():
    # An oversized drift margin kills the lease; reads must still be
    # served — through the ReadIndex round — and count the fallback.
    c = make_raft_cluster(
        5,
        raft=RaftConfig(lease_reads=True, lease_drift_margin_ms=1e9),
    )
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    c.run_for(500.0)
    client.submit(kv_put("x", 9))
    c.run_for(2_000.0)
    client.submit(kv_get("x"), read=True)
    c.run_for(2_000.0)
    assert completed_ops(client)[-1].result == 9
    node = c.node(leader)
    assert node.metrics.lease_fallbacks >= 1
    assert node.metrics.reads_served_readindex >= 1
    assert len(c.trace.of_kind("lease_fallback")) >= 1


def test_static_policy_lease_bound_is_et():
    assert StaticPolicy(300.0, 50.0).lease_bound_ms() == 300.0


def test_dynatune_lease_bound_requires_every_path_tuned():
    # The first-tune cliff: an untuned follower's *default* Et says
    # nothing about the (much shorter) Et it may adopt the moment its
    # measurement window fills, so the bound must stay None until every
    # path has reported a tuned value — and revert to None on fallback.
    p = DynatunePolicy(DynatuneConfig())
    assert p.lease_bound_ms() is None  # fresh leader: no paths yet
    p.heartbeat_meta("f1", 0.0)
    p.heartbeat_meta("f2", 0.0)
    p.on_heartbeat_response("f1", HeartbeatResponseMeta(1, 0.0, None, 120.0), 10.0)
    assert p.lease_bound_ms() is None  # f2 still on its default
    p.on_heartbeat_response("f2", HeartbeatResponseMeta(1, 0.0, None, 90.0), 10.0)
    assert p.lease_bound_ms() == 90.0  # min across tuned paths
    p.on_heartbeat_response("f1", HeartbeatResponseMeta(2, 5.0, None, None), 20.0)
    assert p.lease_bound_ms() is None  # f1 fell back to the default


# --------------------------------------------------------------------- #
# the cached lease anchor and bound, against the walks they replaced
# --------------------------------------------------------------------- #


def _reference_lease_bound(policy):
    """``DynatunePolicy.lease_bound_ms`` as a walk over every path on
    every call, which it was before the bound was kept between changes:
    the oracle the cached bound must equal."""
    bound = None
    for st in policy._paths.values():
        et = st.reported_et_ms
        if et is None:
            return None
        if bound is None or et < bound:
            bound = et
    return bound


def _reference_lease_valid(node):
    """``_lease_valid_for_reads`` as the per-read count of fresh voter
    responses it was before the anchor was kept: the oracle."""
    if not node.config.check_quorum:
        return False
    if node.commit_index < node._term_start_index:
        return False
    bound = _reference_lease_bound(node.policy)
    if bound is None:
        return False
    duration = bound - node._lease_margin_ms
    if duration <= 0.0:
        return False
    needed = node._quorum.acks
    if needed == 0:
        return True
    now = node._now()
    for p in node._quorum.peers:
        if now - node.progress[p].last_response < duration:
            needed -= 1
            if needed == 0:
                return True
    return False


def _serving_cluster(seed, n_clients):
    from repro.cluster import ClusterConfig, build_cluster
    from repro.experiments.common import make_policy_factory
    from repro.experiments.serving import ServingConfig
    from repro.fuzz.history import OpHistory
    from repro.fuzz.workload import WorkloadDriver

    serving = ServingConfig(seed=seed, n_clients=n_clients)
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=serving.n_nodes,
            seed=seed,
            rtt_ms=serving.rtt_ms,
            raft=serving.raft_config("lease"),
        ),
        make_policy_factory(serving.system),
    )
    WorkloadDriver(
        cluster, serving.workload("lease"), OpHistory(), stop_ms=math.inf
    ).install()
    return cluster


def test_cached_lease_matches_the_reference_walk_event_by_event():
    """After every event of a Dynatune lease-read run — a learner joining
    (a path that starts untuned, a quorum change), the leader crashing (a
    new reign) and recovering, a voter leaving — each leader's cached
    anchor and each policy's cached bound answer exactly what the walks
    they replaced answer."""
    from repro.cluster.faults import crash, recover_node
    from repro.scenarios.scenario import Scenario
    from repro.scenarios.steps import AddNode, RemoveNode

    cluster = _serving_cluster(seed=3, n_clients=8)
    Scenario(
        "churn",
        [AddNode(at_ms=4_000.0, node="n6"), RemoveNode(at_ms=9_000.0, node="n1")],
    ).install(cluster)
    cluster.start()
    loop = cluster.loop
    seen = {True: 0, False: 0}
    crashed = None
    while loop.now < 12_000.0:
        loop.step()
        if crashed is None and loop.now >= 6_000.0:
            crashed = cluster.node(cluster.leader())
            crash(crashed)
        elif crashed is not None and not crashed.alive and loop.now >= 7_000.0:
            recover_node(crashed)
        for node in cluster.nodes.values():
            assert node.policy.lease_bound_ms() == _reference_lease_bound(node.policy)
            if node.alive and node.is_leader:
                valid = node._lease_valid_for_reads()
                assert valid == _reference_lease_valid(node), loop.now
                seen[valid] += 1
    assert crashed.alive and crashed.name != cluster.leader()
    voters = cluster.node(cluster.leader()).membership.voters
    assert "n6" in voters and "n1" not in voters
    assert seen[True] > 500 and seen[False] > 500


def test_cached_lease_matches_the_reference_walk_at_the_lease_boundary():
    """At local times a few ulps either side of ``anchor + duration``, and
    at the boundary itself, the anchor test and the count agree — and the
    sweep does cross the boundary."""
    cluster = _serving_cluster(seed=4, n_clients=4)
    cluster.start()
    cluster.run_until(4_000.0)
    node = cluster.node(cluster.leader())
    assert node._lease_valid_for_reads()
    duration = node.policy.lease_bound_ms() - node._lease_margin_ms
    edge = node._lease_anchor + duration - cluster.loop.now
    offsets = [edge]
    for _ in range(4):
        offsets = [math.nextafter(offsets[0], -math.inf), *offsets]
        offsets.append(math.nextafter(offsets[-1], math.inf))
    offsets += [edge - 1e-6, edge + 1e-6, edge - 1.0, edge + 1.0]
    outcomes = set()
    for offset in offsets:
        node.clock.set(offset_ms=offset)
        valid = node._lease_valid_for_reads()
        assert valid == _reference_lease_valid(node), offset
        outcomes.add(valid)
    assert outcomes == {True, False}


def test_cached_lease_anchor_follows_a_quorum_change():
    """Removing the freshest voter moves the anchor to the
    ``acks_needed``-th freshest of the voters that remain at once, before
    any response arrives to mark it for a recount."""
    cluster = _serving_cluster(seed=4, n_clients=4)
    cluster.start()
    cluster.run_until(4_000.0)
    node = cluster.node(cluster.leader())
    assert node._lease_valid_for_reads()  # the anchor is kept from here
    stamps = sorted(
        ((node.progress[p].last_response, p) for p in node._quorum.peers), reverse=True
    )
    (_, freshest), (t2, _), (t3, _) = stamps[:3]
    assert node._quorum.acks == 2 and t2 > t3
    assert node.propose_config_change("remove", freshest)
    assert node._quorum.acks == 2 and freshest not in node._quorum.peers
    duration = node.policy.lease_bound_ms() - node._lease_margin_ms
    # Inside the old anchor's lease (t2), past the new one's (t3).
    node.clock.set(offset_ms=(t2 + t3) / 2.0 + duration - cluster.loop.now)
    assert node._lease_valid_for_reads() is _reference_lease_valid(node) is False


def test_dynatune_lease_bound_follows_every_path_change():
    # The bound is kept between changes; each change to the paths must
    # show in the next read: a heartbeat to a new follower (untuned), a
    # report, a removed peer, a new reign.
    p = DynatunePolicy(DynatuneConfig())
    p.heartbeat_meta("f1", 0.0)
    p.on_heartbeat_response("f1", HeartbeatResponseMeta(1, 0.0, None, 90.0), 10.0)
    assert p.lease_bound_ms() == 90.0
    p.heartbeat_meta("f2", 20.0)
    assert p.lease_bound_ms() is None  # f2 is on its default
    p.on_heartbeat_response("f2", HeartbeatResponseMeta(1, 20.0, None, 120.0), 30.0)
    assert p.lease_bound_ms() == 90.0
    p.on_peer_removed("f1")
    assert p.lease_bound_ms() == 120.0
    p.on_step_down(40.0)
    assert p.lease_bound_ms() is None
    p.heartbeat_meta("f2", 50.0)
    p.on_heartbeat_response("f2", HeartbeatResponseMeta(1, 50.0, None, 80.0), 60.0)
    assert p.lease_bound_ms() == 80.0
    p.on_become_leader(70.0)
    assert p.lease_bound_ms() is None
