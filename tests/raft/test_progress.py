"""Lifecycle of the leader's per-follower ``Progress`` records.

One record per peer, alive exactly as long as the peer is in the reign:
built at ``become_leader``, extended/shrunk by membership changes, gone
after step-down and crash-recovery.  Step-down and removal also forget
the ``hb/<peer>`` / ``quorum`` timers; a crash only disarms them (every
timer of a crashed process is cancelled, none forgotten), so the next
reign must find them driving *its* records.  Plus the pin on
``RaftConfig``'s surviving fields.
"""

import dataclasses

import pytest

from repro.raft.messages import (
    AppendEntriesResponse,
    HeartbeatResponse,
    InstallSnapshotResponse,
    ReadIndexAck,
)
from repro.raft.node import Progress
from repro.raft.state_machine import kv_get, kv_put
from repro.raft.types import RaftConfig, Role
from tests.conftest import make_raft_cluster

REMOVED_FIELDS = (
    "rpc_channel",
    "heartbeat_response_catchup",
    "heartbeat_phase_stagger",
    "heartbeat_timer_jitter_ms",
    "auto_promote_learners",
    "learner_catchup_margin",
    "max_entries_per_append",
    "client_batch_max",
    "max_inflight_appends",
    "suppress_heartbeats_under_load",
    "consolidated_heartbeat_timer",
)


def leader_timers(node):
    return [n for n in node.timers.names() if n.startswith("hb") or n == "quorum"]


def test_become_leader_builds_a_fresh_record_per_peer():
    c = make_raft_cluster(5)
    client = c.add_client("cl")
    leader = c.run_until_leader()
    for i in range(10):
        client.submit(kv_put(f"k{i}", i))
    c.run_for(2_000)
    # Start a reign by hand on a follower whose log is no longer empty, so
    # the records can be read before any ack has touched them.
    node = c.node(next(n for n in c.names if n != leader))
    assert node.progress == {}
    last = node.log.last_index
    assert last > 10
    node._become_candidate()
    node._become_leader()
    assert list(node.progress) == node.peers
    for peer, pr in node.progress.items():
        assert isinstance(pr, Progress)
        assert pr.peer == peer
        assert pr.next == last + 1  # the slot the term-start no-op took
        assert pr.match == 0
        assert pr.inflight == 1  # a fresh 0 plus the reign's first append
        assert not pr.probing
        assert pr.snapshot_sent_at is None
        assert pr.hb_request is None
        assert pr.hb_timer is node.timers.get(f"hb/{peer}") and pr.hb_timer.running
    assert sorted(leader_timers(node)) == sorted(
        [f"hb/{p}" for p in node.peers] + ["quorum"]
    )


def test_step_down_clears_records_and_leader_timers():
    c = make_raft_cluster(3)
    node = c.node(c.run_until_leader())
    c.run_for(500)
    assert node.progress and leader_timers(node)
    node._become_follower(node.current_term + 1, None)
    assert node.progress == {}
    assert leader_timers(node) == []


def test_crash_recover_clears_records_and_disarms_leader_timers():
    c = make_raft_cluster(3)
    node = c.node(c.run_until_leader())
    c.run_for(500)
    stale = dict(node.progress)
    node.crash()
    node.recover()
    assert node.role is Role.FOLLOWER
    assert node.progress == {}
    assert not any(node.timers.get(n).running for n in leader_timers(node))
    # Its next reign beats from fresh records through the surviving timers.
    node._become_candidate()
    node._become_leader()
    sent = node.metrics.heartbeats_sent
    c.run_for(200)
    assert node.is_leader and node.metrics.heartbeats_sent > sent
    for peer, pr in node.progress.items():
        assert pr is not stale[peer]
        assert pr.hb_request is not None and stale[peer].hb_request is not pr.hb_request
        assert pr.hb_timer is node.timers.get(f"hb/{peer}") and pr.hb_timer.running


def test_removed_peer_loses_record_timer_and_probe_state():
    c = make_raft_cluster(5, raft=RaftConfig(replication_pipelining=True))
    node = c.node(c.run_until_leader())
    c.run_for(500)
    gone = node.peers[0]
    node.progress[gone].probing = True  # as after a rejected pipelined append
    assert node.propose_config_change("remove", gone)
    assert gone not in node.progress
    assert node.timers.get(f"hb/{gone}") is None
    c.run_for(2_000)
    assert gone not in node.membership.members
    # Re-adding it starts from a clean slate: no leaked probe mode.
    assert node.propose_config_change("add_learner", gone)
    assert not node.progress[gone].probing


def test_learner_added_mid_reign_gets_fresh_record_and_armed_heartbeat():
    c = make_raft_cluster(3)
    node = c.node(c.run_until_leader())
    c.run_for(500)
    c.spawn_node("n4")
    assert node.propose_config_change("add_learner", "n4")
    pr = node.progress["n4"]
    assert pr.match == 0 and not pr.probing
    assert pr.next == node.log.last_index + 1  # past the config entry itself
    assert pr.hb_timer is node.timers.get("hb/n4") and pr.hb_timer.running
    c.run_for(4_000)
    assert "n4" in node.membership.voters  # caught up and auto-promoted
    assert node.progress["n4"] is pr


@pytest.mark.parametrize(
    "straggler",
    [
        lambda t, p, i: AppendEntriesResponse(
            term=t, follower=p, success=True, match_index=i
        ),
        lambda t, p, i: HeartbeatResponse(t, p, i),
        lambda t, p, i: InstallSnapshotResponse(t, p, i),
    ],
    ids=["append", "heartbeat", "snapshot"],
)
def test_straggler_responses_from_a_removed_peer_are_ignored(straggler):
    c = make_raft_cluster(5)
    node = c.node(c.run_until_leader())
    c.run_for(500)
    gone = node.peers[0]
    assert node.propose_config_change("remove", gone)
    c.run_for(2_000)
    assert node.is_leader
    before = (node.commit_index, dict(node.progress), node.metrics.appends_sent)
    node.deliver(gone, straggler(node.current_term, gone, node.log.last_index + 5))
    assert gone not in node.progress
    assert (node.commit_index, node.progress, node.metrics.appends_sent) == before


def test_read_ack_from_a_removed_peer_is_not_counted():
    c = make_raft_cluster(5)
    node = c.node(c.run_until_leader())
    c.run_for(500)
    gone = node.peers[0]
    assert node.propose_config_change("remove", gone)
    c.run_for(2_000)
    node._read_buf.append(("cl", 1, kv_get("k")))
    node._start_read_round()
    round_ = node._read_round
    node.deliver(gone, ReadIndexAck(node.current_term, gone, round_.seq))
    assert round_.acks == set() and node._read_round is round_
    assert gone not in node.progress


def test_raftconfig_fields():
    names = [f.name for f in dataclasses.fields(RaftConfig)]
    assert names == [
        "prevote",
        "check_quorum",
        "client_batching",
        "client_batch_window_ms",
        "replication_pipelining",
        "lease_reads",
        "lease_drift_margin_ms",
        "compaction_threshold",
        "compaction_retain_margin",
    ]
    for name in REMOVED_FIELDS:
        with pytest.raises(TypeError):
            RaftConfig(**{name: 1})
