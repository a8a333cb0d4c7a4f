"""``RaftNode._apply_committed`` over one mixed batch: a term-start no-op,
client commands, and a config entry whose commit deposes the leader
half-way through."""

from repro.raft.membership import ConfigChange
from repro.raft.messages import ClientRequest
from repro.raft.state_machine import kv_put
from repro.raft.types import Role
from tests.conftest import make_raft_cluster


def test_noop_config_entry_and_mid_batch_step_down():
    c = make_raft_cluster(3)
    c.enable_membership()
    leader = c.run_until_leader()
    c.run_for(500)
    node = c.node(leader)
    assert node.log.entry_at(node.last_applied).command is None  # the no-op
    applied_before = node.metrics.entries_applied
    first = node.log.last_index + 1

    replies = []
    node._reply = lambda client, req, ok, result=None, leader_hint=None: replies.append(
        (client, req, ok, result)
    )
    node.deliver("cl", ClientRequest(1, kv_put("a", 1)))
    assert node.propose_config_change("remove", leader)
    node.deliver("cl", ClientRequest(2, kv_put("b", 2)))
    node.deliver("cl", ClientRequest(3, kv_put("c", 3)))
    assert node.log.last_index == first + 3
    assert isinstance(node.log.entry_at(first + 1).command, ConfigChange)
    assert sorted(node._pending_client) == [first, first + 2, first + 3]

    # The whole tail commits at once (as a late quorum ack would do it).
    node.commit_index = node.log.last_index
    node._apply_committed()

    assert node.last_applied == node.commit_index == first + 3
    assert node.metrics.entries_applied == applied_before + 4
    assert [r.node for r in node.trace.of_kind("config_commit")] == [node.name]
    assert node.role is Role.FOLLOWER and node._pending_client == {}
    # Before the config entry: answered.  After it: failed by the
    # step-down, and not answered again when they apply.
    assert replies == [
        ("cl", 1, True, 1),
        ("cl", 2, False, None),
        ("cl", 3, False, None),
    ]
    assert [node.state_machine.peek(k) for k in "abc"] == [1, 2, 3]

    node._apply_committed()  # nothing left: no effect
    assert node.metrics.entries_applied == applied_before + 4 and len(replies) == 3
