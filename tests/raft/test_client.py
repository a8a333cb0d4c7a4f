"""RaftClient behaviour: redirects, retries, giveup, what the history
records."""

import pytest

from repro.raft.state_machine import kv_put
from tests.conftest import add_recorded_client, completed_ops, make_raft_cluster


def _giveups(c):
    return [r.get("request") for r in c.trace.of_kind("client_giveup")]


def _sends(c, client):
    """Transmissions from the client, per server."""
    return {n: c.network.link(client.name, n).stats.sent for n in c.names}


def test_client_follows_redirect_to_leader():
    c = make_raft_cluster(5)
    client = add_recorded_client(c, "cl")
    leader = c.run_until_leader()
    client.submit(kv_put("x", 1))
    c.run_for(3000)
    assert len(completed_ops(client)) == 1
    assert client._contact == leader


def test_client_latency_reasonable():
    c = make_raft_cluster(3, rtt_ms=20.0)
    client = add_recorded_client(c, "cl")
    c.run_until_leader()
    client.submit(kv_put("x", 1))
    c.run_for(3000)
    done = completed_ops(client)[0]
    # one hop to contact (+ maybe redirect) + replication round trip
    assert 20.0 <= done.return_ms - done.invoke_ms <= 200.0


def test_client_rotates_contacts_when_cluster_down():
    c = make_raft_cluster(3)
    client = add_recorded_client(c, "cl", retry_timeout_ms=200.0)
    c.run_until_leader()
    for n in c.names:
        c.node(n).pause()
    client.submit(kv_put("x", 1))
    c.run_for(3000)
    assert completed_ops(client) == [] and _giveups(c) == []
    sends = _sends(c, client)
    # Still trying: one transmission per 200 ms timeout, round-robin.
    assert sum(sends.values()) >= 10 and all(sends.values())


def test_client_gives_up_after_max_retries():
    c = make_raft_cluster(3)
    client = add_recorded_client(c, "cl", retry_timeout_ms=100.0)
    client.max_retries = 3
    c.run_until_leader()
    for n in c.names:
        c.node(n).pause()
    rid = client.submit(kv_put("x", 1))
    c.run_for(5000)
    assert _giveups(c) == [rid]
    assert sum(_sends(c, client).values()) == 1 + client.max_retries
    assert completed_ops(client) == []


def test_on_complete_callback_invoked():
    c = make_raft_cluster(3)
    client = c.add_client("cl")
    c.run_until_leader()
    seen = []
    client.submit(kv_put("x", 1), on_complete=seen.append)
    c.run_for(3000)
    assert seen == [0]


def test_read_submit_rejects_anything_but_a_get():
    # The leader's read path serves a KV get only; anything else used to
    # be sent and then abort the whole run from inside the leader.
    from repro.fuzz.history import OpHistory
    from repro.raft.state_machine import kv_delete, kv_get

    c = make_raft_cluster(3)
    history = OpHistory()
    client = c.add_client("cl", history=history)
    leader = c.run_until_leader()
    client._contact = leader
    for command in (kv_put("a", 1), kv_delete("a"), ("get", "a")):
        with pytest.raises(ValueError, match="read=True"):
            client.submit(command, read=True)
    assert client._next_id == 0 and len(history) == 0
    assert sum(_sends(c, client).values()) == 0
    client.submit(kv_put("a", 1))
    c.run_for(2_000.0)
    client.submit(kv_get("a"), read=True)
    c.run_for(2_000.0)
    assert [(o.op, o.result) for o in history.ops()] == [("put", 1), ("get", 1)]


def test_completed_request_records_command_and_retries():
    c = make_raft_cluster(3)
    client = add_recorded_client(c, "cl")
    c.run_until_leader()
    client.submit(kv_put("key", "val"))
    c.run_for(3000)
    done = completed_ops(client)[0]
    assert (done.op, done.key, done.value, done.result) == ("put", "key", "val", "val")
    assert done.return_ms > done.invoke_ms


# --------------------------------------------------------------------- #
# retry/redirect under partition, and the at-most-once fuzz-client mode
# --------------------------------------------------------------------- #


def test_redirect_records_single_completed_history_op():
    from repro.fuzz.history import OpHistory

    c = make_raft_cluster(5)
    history = OpHistory()
    client = c.add_client("cl", history=history)
    leader = c.run_until_leader()
    follower = next(n for n in c.names if n != leader)
    client._contact = follower  # force the redirect path
    client.submit(kv_put("x", 1))
    c.run_for(3_000.0)
    ops = history.ops()
    assert len(ops) == 1 and ops[0].completed
    assert ops[0].op == "put" and ops[0].key == "x" and ops[0].result == 1
    assert client._contact == leader


def test_retry_rides_out_leader_partition():
    from repro.fuzz.history import OpHistory

    c = make_raft_cluster(5, seed=3)
    history = OpHistory()
    client = c.add_client("cl", retry_timeout_ms=300.0, history=history)
    leader = c.run_until_leader()
    client._contact = leader
    # Island the leader: the client (implicit partition group) stays with
    # the majority, but its believed contact is now unreachable.
    c.network.set_partitions([{leader}])
    client.submit(kv_put("x", 1))
    c.run_for(8_000.0)
    (done,) = history.ops()
    # At least one timeout-driven rotation before the answer.
    assert done.completed and done.return_ms - done.invoke_ms > 300.0
    assert client._contact != leader


def test_at_most_once_client_abandons_instead_of_resending():
    from repro.fuzz.history import OpHistory

    c = make_raft_cluster(3)
    history = OpHistory()
    client = c.add_client(
        "cl", retry_timeout_ms=300.0, history=history, resubmit_on_timeout=False
    )
    c.run_until_leader()
    # Cut the client off from the whole cluster: the listed group holds
    # every node, the client lands alone in the implicit group.
    c.network.set_partitions([set(c.names)])
    client.submit(kv_put("x", 1))
    c.run_for(5_000.0)
    assert _giveups(c) == []
    assert sum(_sends(c, client).values()) == 1  # open, never retransmitted
    assert len(c.trace.of_kind("client_abandon")) == 1
    ops = history.ops()
    assert len(ops) == 1 and not ops[0].completed


def test_abandoned_op_completed_by_late_response():
    from repro.fuzz.history import OpHistory

    c = make_raft_cluster(3, rtt_ms=20.0)
    history = OpHistory()
    # Client->server RTT far above the abandon timeout: every answer is
    # "late", arriving only after the client has given the op up.
    client = c.add_client(
        "cl",
        rtt_ms=800.0,
        retry_timeout_ms=300.0,
        history=history,
        resubmit_on_timeout=False,
    )
    leader = c.run_until_leader()
    client._contact = leader
    client.submit(kv_put("x", 1))
    c.run_for(5_000.0)
    assert len(c.trace.of_kind("client_abandon")) == 1
    ops = history.ops()  # the late answer still lands
    assert len(ops) == 1
    assert ops[0].completed and ops[0].return_ms > ops[0].invoke_ms + 300.0


def test_at_most_once_still_follows_redirects():
    from repro.fuzz.history import OpHistory

    c = make_raft_cluster(5)
    history = OpHistory()
    client = c.add_client("cl", history=history, resubmit_on_timeout=False)
    leader = c.run_until_leader()
    c.run_for(500.0)  # let followers observe the leader (hints need it)
    follower = next(n for n in c.names if n != leader)
    client._contact = follower
    client.submit(kv_put("x", 1))
    c.run_for(3_000.0)
    # A redirect proves the first copy was never appended, so resending
    # is safe even in at-most-once mode.
    (op,) = history.ops()
    assert op.completed


# --------------------------------------------------------------------- #
# regression tests: redirect give-up trace, bogus hints, rotation skew
# --------------------------------------------------------------------- #


def test_redirect_giveup_emits_trace_and_abandons_history():
    # Exhausting max_retries on the *redirect* path must account the
    # failure exactly like the timeout path: trace + history abandon.
    from repro.fuzz.history import OpHistory

    c = make_raft_cluster(5)
    history = OpHistory()
    client = c.add_client("cl", history=history)
    client.max_retries = 0
    leader = c.run_until_leader()
    c.run_for(500.0)  # followers must know the leader to emit hints
    follower = next(n for n in c.names if n != leader)
    client._contact = follower
    rid = client.submit(kv_put("x", 1))
    c.run_for(3_000.0)
    assert _giveups(c) == [rid]
    ops = history.ops()
    assert len(ops) == 1 and not ops[0].completed


def test_redirect_with_unknown_leader_hint_falls_back_to_rotation():
    # A hint naming a server outside the rotation (e.g. a removed member
    # the responder has not unlearned) must not strand the client.
    from repro.raft.messages import ClientResponse

    c = make_raft_cluster(3)
    client = add_recorded_client(c, "cl")
    c.run_until_leader()
    rid = client.submit(kv_put("x", 1))
    client._on_response(ClientResponse(request_id=rid, ok=False, leader_hint="ghost"))
    assert client._contact in client.cluster
    assert client._contact == client.cluster[1]  # round-robin advanced
    c.run_for(3_000.0)
    assert len(completed_ops(client)) == 1  # the request still completes


def test_forget_server_preserves_rotation_position():
    # Removing an entry below the rotation pointer used to leave the
    # pointer indexing one server further along, skipping a live one.
    c = make_raft_cluster(5)
    client = c.add_client("cl")
    pointed = client.cluster[2]
    client._rr = 2
    client.forget_server(client.cluster[0])
    assert client.cluster[client._rr] == pointed


def test_forget_server_at_rotation_index_moves_to_successor():
    c = make_raft_cluster(3)
    client = c.add_client("cl")
    names = list(client.cluster)
    client._rr = 1
    client.forget_server(names[1])
    assert client.cluster[client._rr] == names[2]


def test_forget_server_above_rotation_index_is_unaffected():
    c = make_raft_cluster(4)
    client = c.add_client("cl")
    pointed = client.cluster[1]
    client._rr = 1
    client.forget_server(client.cluster[3])
    assert client.cluster[client._rr] == pointed


def test_forget_server_rotation_walk_visits_every_survivor():
    # Deterministic rotation check: after any single removal, one full
    # walk of the rotation visits each surviving server exactly once.
    c = make_raft_cluster(5)
    for start_rr in range(5):
        for removed_idx in range(5):
            client = c.add_client(f"cl-{start_rr}-{removed_idx}")
            client._rr = start_rr
            survivors = set(client.cluster) - {client.cluster[removed_idx]}
            client.forget_server(client.cluster[removed_idx])
            seen = []
            for _ in range(len(client.cluster)):
                seen.append(client.cluster[client._rr])
                client._rr = (client._rr + 1) % len(client.cluster)
            assert set(seen) == survivors and len(seen) == len(survivors)
