"""Crash-point recovery: serving state, compound atomicity, transfer races."""

import dataclasses

from repro.raft.messages import ClientReadRequest
from repro.raft.state_machine import kv_get, kv_put
from repro.raft.types import RaftConfig, Role
from repro.sim.process import ProcessState
from repro.storage import DiskFaultConfig
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


def disk_cluster(n=3, *, seed=5, **kwargs):
    return make_raft_cluster(
        n, seed=seed, storage="simdisk", **kwargs
    )


def pump(c, client, n, settle_ms=3000):
    for i in range(n):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(settle_ms)


def set_faults(node, **kwargs):
    node.storage.faults = dataclasses.replace(DiskFaultConfig(), **kwargs)


# --------------------------------------------------------------------- #
# recovery clears in-flight serving state (crash mid-ReadIndex round)
# --------------------------------------------------------------------- #


def test_crash_mid_readindex_round_clears_serving_state():
    """A leader that crashes with a ReadIndex round in flight must not
    come back holding the round: a quorum confirmation gathered by the
    pre-crash incarnation says nothing about the post-recovery one, so
    serving a read anchored to it would be a stale read."""
    c = disk_cluster(5)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    pump(c, client, 5)
    node = c.node(leader)
    served_before = node.metrics.reads_served_readindex
    # Open a round: the read registers and the probes broadcast, but no
    # ack can return within 1 ms of virtual time.
    node.deliver("cl", ClientReadRequest(request_id=999, command=kv_get("k0")))
    c.run_for(1)
    assert node._read_round is not None
    node.crash()
    node.recover()
    # The round and its buffered reads died with the incarnation, and the
    # recovered node is a follower — no leader-side serving state at all.
    assert node._read_round is None
    assert node._read_buf == []
    assert node.role is Role.FOLLOWER
    c.run_for(4000)
    # Late acks from the pre-crash probes must not have served anything
    # through the dead round.
    assert node.metrics.reads_served_readindex == served_before
    # The cluster itself moved on and still serves correct reads.
    client.submit(kv_get("k0"), read=True)
    c.run_for(2000)
    assert completed_ops(client) and completed_ops(client)[-1].result == 0


# --------------------------------------------------------------------- #
# compound persist atomicity
# --------------------------------------------------------------------- #


def test_snapshot_then_compact_atomic_across_crash_point():
    """Snapshot and compact are journaled as one ordered pending pair; a
    crash at any persist point recovers a consistent (snapshot, frontier)
    pair — the snapshot at or ahead of the log frontier, never behind."""
    c = disk_cluster(
        3,
        raft=RaftConfig(compaction_threshold=15, compaction_retain_margin=3),
    )
    client = c.add_client("cl")
    leader = c.run_until_leader()
    node = c.node(leader)
    # Crash at persist points while compaction pressure is on: some sync
    # covering a snapshot+compact pair will be the one that dies.
    set_faults(node, p_crash_point=0.3, auto_recover_ms=300.0)
    for i in range(60):
        client.submit(kv_put(f"k{i}", i))
        if i % 10 == 9:
            c.run_for(800)
    set_faults(node)
    c.run_for(6000)
    assert c.trace.of_kind("disk_crash_point")
    assert c.trace.of_kind("disk_recover")
    for n in c.names:
        log = c.node(n).log
        snap = c.node(n).snapshot
        if log.last_included_index > 0:
            assert snap is not None
            assert snap.last_included_index >= log.last_included_index
    # And the cluster converged to the full workload despite the storms.
    lead = c.run_until_leader()
    machines = {
        n: c.node(n).state_machine.snapshot()
        for n in c.names
        if c.node(n).state is ProcessState.RUNNING
    }
    assert machines[lead] == dict(
        sorted({f"k{i}": i for i in range(60)}.items())
    ) or len(machines[lead]) == 60


# --------------------------------------------------------------------- #
# torn membership entry at the WAL tail
# --------------------------------------------------------------------- #


def test_torn_config_entry_at_tail_rolls_back_cleanly():
    """A membership change whose config entry tears at the WAL tail was
    never acknowledged (the covering sync died), so recovery truncates it
    and the old configuration stays in force everywhere."""
    c = disk_cluster(3)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    pump(c, client, 5)
    node = c.node(leader)
    victim = next(n for n in c.names if n != leader)
    voters_before = set(node.membership.voters)
    last_before = node.log.last_index
    set_faults(node, p_crash_point=1.0, p_torn_tail=1.0)
    # The proposal appends the config entry and hits its persist barrier,
    # which is exactly where the crash point fires; the entry tears.
    assert node.propose_config_change("remove", victim) is False
    assert node.state is ProcessState.CRASHED
    set_faults(node)
    node.recover()
    torn = c.trace.of_kind("wal_truncated")
    assert torn and torn[-1].node == leader
    # The torn entry is gone and the membership never changed.
    assert node.log.last_index == last_before
    assert set(node.membership.voters) == voters_before
    c.run_for(4000)
    for n in c.names:
        assert set(c.node(n).membership.voters) == voters_before
    client.submit(kv_put("after", 1))
    c.run_for(2000)
    assert any(r.key == "after" for r in completed_ops(client))


# --------------------------------------------------------------------- #
# crash during receiver-side snapshot transfer
# --------------------------------------------------------------------- #


def test_crash_at_snapshot_install_persist_point_retries_clean():
    """The receiver dies at the persist point covering an InstallSnapshot
    (snapshot + log-reset pending pair): the ack never leaves, recovery
    sees the old consistent state, and the leader's retry lands."""
    c = disk_cluster(
        5,
        raft=RaftConfig(compaction_threshold=20, compaction_retain_margin=4),
    )
    client = c.add_client("cl")
    leader = c.run_until_leader()
    c.run_for(500)
    lagger = next(n for n in c.names if n != leader)
    c.node(lagger).crash()
    pump(c, client, 80, settle_ms=9000)
    lead = c.node(leader)
    assert lead.log.first_index > lead.progress[lagger].match + 1
    node = c.node(lagger)
    # First persist with a non-empty pending tail after rejoin is the
    # snapshot install itself — that sync crashes.
    set_faults(node, p_crash_point=1.0, auto_recover_ms=400.0)
    node.recover()
    c.run_for(1500)
    assert c.trace.of_kind("disk_crash_point")
    # Mid-transfer crash left a consistent pair: nothing half-installed.
    snap_idx = (
        node.snapshot.last_included_index if node.snapshot is not None else 0
    )
    assert snap_idx >= node.log.last_included_index
    set_faults(node)
    c.run_for(6000)
    assert node.state is ProcessState.RUNNING
    assert node.metrics.snapshots_installed >= 1
    assert node.state_machine.snapshot() == lead.state_machine.snapshot()
    assert node.commit_index == lead.commit_index


# --------------------------------------------------------------------- #
# leader recovery basics under the durable engine
# --------------------------------------------------------------------- #


def test_recovered_leader_keeps_every_synced_entry():
    c = disk_cluster(3)
    client = c.add_client("cl")
    leader = c.run_until_leader()
    pump(c, client, 20)
    node = c.node(leader)
    view = node.storage.durable_view()
    assert max(view.entry_terms) == node.log.last_index  # acked ⇒ synced
    node.crash()
    node.recover()
    assert node.current_term == view.term
    assert node.log.last_index == max(view.entry_terms)
    for idx, term in view.entry_terms.items():
        assert node.log.term_at(idx) == term
    c.run_for(4000)
    lead = c.run_until_leader()
    assert c.node(lead).state_machine.snapshot()["k19"] == 19
