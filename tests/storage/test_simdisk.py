"""SimDiskStorage semantics: WAL frontier, fault draws, recovery repair."""

import dataclasses

import numpy as np
import pytest

from repro.raft.state_machine import kv_put
from repro.raft.types import RaftConfig
from repro.sim.process import ProcessState
from repro.storage import DiskFaultConfig, SimDiskStorage
from repro.storage.base import DiskCorruptionError
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


def disk_cluster(n=3, *, faults=None, seed=5, **kwargs):
    return make_raft_cluster(
        n, seed=seed, storage="simdisk", disk_faults=faults, **kwargs
    )


def pump(c, client, n, settle_ms=3000):
    for i in range(n):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(settle_ms)


# --------------------------------------------------------------------- #
# the zero-fault contract
# --------------------------------------------------------------------- #


def test_fault_free_simdisk_matches_ideal_run():
    """With every fault probability 0, the simdisk backend is pure
    bookkeeping: the same seed produces the same cluster history as the
    ideal backend, event for event — snapshots and compaction included."""

    def run(storage, raft):
        c = make_raft_cluster(3, seed=9, storage=storage, raft=raft)
        client = c.add_client("cl")
        c.run_until_leader()
        pump(c, client, 20)
        return c

    for raft in (RaftConfig(), RaftConfig(compaction_threshold=8, compaction_retain_margin=2)):
        ideal, disk = run("ideal", raft), run("simdisk", raft)
        assert [(r.time, r.node, r.kind) for r in ideal.trace.all()] == [
            (r.time, r.node, r.kind) for r in disk.trace.all()
        ]
        for n in ideal.names:
            assert (
                ideal.node(n).state_machine.snapshot()
                == disk.node(n).state_machine.snapshot()
            )
    # The second config's run really did snapshot and compact.
    assert sum(n.metrics.compactions for n in disk.nodes.values()) > 0


def test_durable_view_lags_pending_until_sync():
    """Writes are invisible to the durable view until the fsync barrier."""
    store = SimDiskStorage(np.random.default_rng(7))
    c = disk_cluster()
    store.attach(c.node("n1"))  # sync() needs a node for fault plumbing
    store.save_hard_state(5, "n2")
    assert store.durable_view().term == 0  # pending, not durable
    assert store.sync()
    view = store.durable_view()
    assert (view.term, view.voted_for) == (5, "n2")


def test_synced_state_survives_crash_pending_tail_does_not():
    c = disk_cluster()
    client = c.add_client("cl")
    c.run_until_leader()
    pump(c, client, 10)
    follower = next(n for n in c.names if c.node(n).role.name != "LEADER")
    node = c.node(follower)
    synced = node.storage.durable_view()
    assert synced.entry_terms  # replication reached the disk
    # A pending record written after the last barrier is lost by the crash.
    node.storage.save_hard_state(99, None)
    node.crash()
    node.recover()
    assert node.current_term == synced.term
    assert node.log.last_index == max(synced.entry_terms)


def test_fault_config_validation():
    with pytest.raises(ValueError):
        DiskFaultConfig(p_crash_point=1.5)
    with pytest.raises(ValueError):
        DiskFaultConfig(stall_ms=0.0)
    with pytest.raises(ValueError):
        DiskFaultConfig(auto_recover_ms=-1.0)


# --------------------------------------------------------------------- #
# the DiskFault scenario step
# --------------------------------------------------------------------- #


def test_disk_fault_step_swaps_and_reverts_fault_config():
    from repro.scenarios.scenario import Scenario
    from repro.scenarios.steps import DiskFault

    c = disk_cluster()
    Scenario(
        "window",
        [
            DiskFault(
                at_ms=100.0,
                node="n2",
                p_torn_tail=0.5,
                p_io_error=0.01,
                duration_ms=500.0,
            )
        ],
    ).install(c)
    c.run_for(300)
    faults = c.node("n2").storage.faults
    assert faults.p_torn_tail == 0.5 and faults.p_io_error == 0.01
    assert c.node("n1").storage.faults.p_torn_tail == 0.0  # targeted, not global
    c.run_for(500)
    assert c.node("n2").storage.faults.p_torn_tail == 0.0  # window closed


def test_disk_fault_step_skips_on_ideal_storage():
    from repro.scenarios.scenario import Scenario
    from repro.scenarios.steps import DiskFault

    c = make_raft_cluster(3, seed=5)  # ideal backend
    Scenario(
        "window", [DiskFault(at_ms=50.0, node="n1", p_crash_point=0.5)]
    ).install(c)
    c.run_for(200)
    recs = c.trace.of_kind("scenario_step")
    assert any(r.get("skipped") and r.get("step") == "disk_fault" for r in recs)


# --------------------------------------------------------------------- #
# injected faults
# --------------------------------------------------------------------- #


def set_faults(node, **kwargs):
    node.storage.faults = dataclasses.replace(DiskFaultConfig(), **kwargs)


def test_crash_point_fires_at_persist_and_auto_recovers():
    c = disk_cluster()
    client = c.add_client("cl")
    leader = c.run_until_leader()
    pump(c, client, 5)
    follower = next(n for n in c.names if n != leader)
    node = c.node(follower)
    set_faults(node, p_crash_point=1.0, auto_recover_ms=400.0)
    client.submit(kv_put("x", 1))
    c.run_for(200)
    assert node.state is ProcessState.CRASHED
    assert c.trace.of_kind("disk_crash_point")
    set_faults(node)  # let the recovered incarnation persist normally
    c.run_for(3000)
    assert node.state is ProcessState.RUNNING
    recs = c.trace.of_kind("disk_recover")
    assert recs and recs[0].node == follower
    assert node.state_machine.snapshot() == c.node(leader).state_machine.snapshot()


def test_io_error_fail_stops_the_node():
    c = disk_cluster()
    client = c.add_client("cl")
    leader = c.run_until_leader()
    pump(c, client, 3)
    follower = next(n for n in c.names if n != leader)
    node = c.node(follower)
    set_faults(node, p_io_error=1.0)
    client.submit(kv_put("x", 1))
    c.run_for(500)
    assert node.state is ProcessState.CRASHED
    assert c.trace.of_kind("disk_io_error")


def test_stall_freezes_then_resumes():
    c = disk_cluster()
    client = c.add_client("cl")
    leader = c.run_until_leader()
    pump(c, client, 3)
    follower = next(n for n in c.names if n != leader)
    node = c.node(follower)
    set_faults(node, p_stall=1.0, stall_ms=100.0)
    client.submit(kv_put("x", 1))
    c.run_for(30)
    assert node.state is ProcessState.PAUSED  # frozen around the fsync
    set_faults(node)
    c.run_for(3000)
    assert node.state is ProcessState.RUNNING
    assert c.trace.of_kind("disk_stall")
    assert node.state_machine.snapshot() == c.node(leader).state_machine.snapshot()


def test_torn_tail_is_truncated_and_traced_at_recovery():
    c = disk_cluster()
    client = c.add_client("cl")
    leader = c.run_until_leader()
    pump(c, client, 5)
    follower = next(n for n in c.names if n != leader)
    node = c.node(follower)
    set_faults(node, p_crash_point=1.0, p_torn_tail=1.0, auto_recover_ms=400.0)
    client.submit(kv_put("x", 1))
    c.run_for(200)
    assert node.state is ProcessState.CRASHED
    set_faults(node)
    c.run_for(3000)
    assert node.state is ProcessState.RUNNING
    torn = c.trace.of_kind("wal_truncated")
    assert torn and torn[0].node == follower and torn[0].get("records") == 1
    # Truncation is safe: the torn record was never covered by a sync ack,
    # and replication repairs the follower right back.
    assert node.state_machine.snapshot() == c.node(leader).state_machine.snapshot()


def test_corruption_below_synced_frontier_refuses_recovery():
    """A checksum failure below the synced frontier means acked state is
    unrecoverable: the node must refuse to rejoin (alarm + stay down),
    never silently truncate its way past the damage."""
    c = disk_cluster()
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    pump(c, client, 10)
    follower = next(n for n in c.names if n != leader)
    node = c.node(follower)
    set_faults(node, p_bitflip=1.0, auto_recover_ms=300.0)
    node.crash()
    c.run_for(2000)
    recs = c.trace.of_kind("disk_corruption")
    assert recs and recs[0].node == follower
    assert node.state is ProcessState.CRASHED  # refused, and stays down
    assert not c.trace.of_kind("wal_truncated")  # no silent repair
    with pytest.raises(DiskCorruptionError):
        node.storage.recover()
    # The remaining quorum keeps serving without the refusing replica.
    client.submit(kv_put("alive", 1))
    c.run_for(2000)
    assert any(r.key == "alive" for r in completed_ops(client))
