"""CostModel accounting and sampling, and where the billing is installed."""

import types

import pytest

from repro.cluster.capacity import BILLED, DEFAULT_COSTS_MS, BilledPort, CostModel
from repro.experiments import fig7_loss
from repro.raft.messages import (
    AppendEntriesRequest,
    HeartbeatRequest,
    HeartbeatResponse,
    VoteRequest,
)
from repro.raft.node import RaftNode
from repro.sim.loop import EventLoop
from tests.conftest import make_raft_cluster


def test_charge_accumulates():
    m = CostModel({"op": 0.5})
    m.charge("n1", "op")
    m.charge("n1", "op", units=3)
    assert m.busy_ms["n1"] == pytest.approx(2.0)
    assert m.op_counts["op"] == 4


def test_unknown_kind_costs_nothing():
    m = CostModel({})
    m.charge("n1", "mystery")
    assert m.busy_ms["n1"] == 0.0
    assert m.op_counts["mystery"] == 1


def test_busy_by_kind():
    m = CostModel({"a": 1.0, "b": 2.0})
    m.charge("n1", "a")
    m.charge("n2", "b")
    assert m.busy_by_kind["a"] == 1.0
    assert m.busy_by_kind["b"] == 2.0


def test_default_cost_table_covers_heartbeat_path():
    for kind in ("heartbeat_send", "heartbeat_recv", "heartbeat_resp_recv", "tuning"):
        assert kind in DEFAULT_COSTS_MS


def test_sampling_percent_of_core():
    loop = EventLoop()
    m = CostModel({"op": 1.0})
    m.start_sampling(loop, ["n1"], interval_ms=1000.0)
    # 100 ops in the first second -> 100 ms busy -> 10% of one core.
    for i in range(100):
        loop.schedule(i * 5.0, lambda: m.charge("n1", "op"))
    loop.run_until(1000.0)
    assert len(m.samples) == 1
    assert m.samples[0].percent_of_core == pytest.approx(10.0)


def test_sampling_windows_are_deltas():
    loop = EventLoop()
    m = CostModel({"op": 1.0})
    m.start_sampling(loop, ["n1"], interval_ms=1000.0)
    loop.schedule(500.0, lambda: m.charge("n1", "op", units=100))
    loop.schedule(1500.0, lambda: m.charge("n1", "op", units=50))
    loop.run_until(2000.0)
    times, vals = m.utilization_series("n1")
    assert times == [1000.0, 2000.0]
    assert vals == pytest.approx([10.0, 5.0])


def test_sampling_interval_validation():
    with pytest.raises(ValueError):
        CostModel().start_sampling(EventLoop(), ["n1"], interval_ms=0.0)


def test_mean_utilization():
    loop = EventLoop()
    m = CostModel({"op": 1.0})
    m.start_sampling(loop, ["n1"], interval_ms=1000.0)
    loop.schedule(100.0, lambda: m.charge("n1", "op", units=100))
    loop.run_until(2000.0)
    assert m.mean_utilization("n1") == pytest.approx(5.0)
    assert m.mean_utilization("ghost") == 0.0


def test_saturated():
    m = CostModel({"op": 1.0}, cores=2.0)
    m.charge("n1", "op", units=2500)
    assert m.saturated("n1", wall_ms=1000.0)
    assert not m.saturated("n1", wall_ms=2000.0)


# -- billing as messages pass (the port between a node and the fabric) ------ #

#: ``op_counts`` and the leader's ``busy_ms`` of the tiny Fig. 7 cell
#: (``test_fig7_h_tracks_loss_and_fixk_flat``: 5 nodes, dwell 8 s, loss
#: 0 / 0.15 / 0.30), captured while the charge sites still lived inside
#: ``RaftNode`` (PR 16).  Billing from outside must reproduce them.
_PINNED = {
    "dynatune": (
        {
            "heartbeat_send": 2959,
            "heartbeat_recv": 2547,
            "heartbeat_resp_send": 2547,
            "heartbeat_resp_recv": 2237,
            "tuning": 7743,
            "append_send": 4,
            "append_recv": 4,
            "append_resp_recv": 4,
            "client_request": 0,
            "apply": 5,
        },
        ("n3", 950.1299999998566),
    ),
    "fix-k": (
        {
            "heartbeat_send": 9338,
            "heartbeat_recv": 8385,
            "heartbeat_resp_send": 8385,
            "heartbeat_resp_recv": 7672,
            "tuning": 25395,
            "append_send": 4,
            "append_recv": 4,
            "append_resp_recv": 4,
            "client_request": 0,
            "apply": 5,
        },
        ("n3", 3095.5299999992108),
    ),
}


@pytest.mark.parametrize("system", sorted(_PINNED))
def test_billing_from_outside_reproduces_the_in_node_counts(system, monkeypatch):
    built = []
    real = fig7_loss.build_cluster
    monkeypatch.setattr(
        fig7_loss, "build_cluster", lambda *a, **k: built.append(real(*a, **k)) or built[-1]
    )
    cfg = fig7_loss.Fig7Config(
        system=system, n_nodes=5, dwell_ms=8_000.0, loss_levels=(0.0, 0.15, 0.30)
    )
    run = fig7_loss.run_one(cfg)
    (cluster,) = built
    model = cluster.cost_model
    counts, (leader, busy) = _PINNED[system]
    assert set(counts) == set(DEFAULT_COSTS_MS)  # the ten priced kinds
    assert {kind: model.op_counts[kind] for kind in counts} == counts
    assert set(model.op_counts) <= set(counts)  # nothing unpriced is billed
    assert run.leader == leader
    assert model.busy_ms[leader] == pytest.approx(busy, rel=1e-9)


def test_billed_kinds_all_have_a_price():
    kinds = {kind for pair in BILLED.values() for kind in pair if kind is not None}
    assert kinds | {"tuning", "apply"} == set(DEFAULT_COSTS_MS)


def test_cost_model_off_means_no_port_anywhere():
    c = make_raft_cluster(3)
    for name, node in c.nodes.items():
        assert c.network.endpoint(name) is node
        assert node._transmit == c.network.transmit
    joiner = c.spawn_node("n4")
    assert c.network.endpoint("n4") is joiner
    assert joiner._transmit == c.network.transmit


def test_cost_model_on_wires_every_node_through_a_port():
    c = make_raft_cluster(3, with_cost_model=True)
    c.spawn_node("n4")
    for name, node in c.nodes.items():
        port = c.network.endpoint(name)
        assert isinstance(port, BilledPort) and port.node is node
        assert isinstance(node, RaftNode) and node._transmit == port.transmit
    c.run_until_leader()
    c.run_for(500.0)
    assert c.cost_model.busy_ms[c.leader()] > 0.0


def test_port_billing_rules():
    """The three rules beside the table: append units, where metadata
    costs a ``tuning``, and applies read off the node's counter."""
    sent = []
    network = types.SimpleNamespace(transmit=lambda *args: sent.append(args))
    node = types.SimpleNamespace(
        alive=True,
        metrics=types.SimpleNamespace(entries_applied=0),
        deliver=lambda sender, payload: None,
    )
    model = CostModel()
    port = BilledPort(model, network, "n1")
    port.node = node
    meta = object()

    port.transmit("n1", "n2", HeartbeatRequest(1, "n1", 0, meta), "udp", 88)
    port.transmit("n1", "n2", HeartbeatResponse(1, "n1", 0, meta), "udp", 88)
    port.transmit("n1", "n2", VoteRequest(1, "n1", 0, 0), "tcp", 96)  # free
    assert len(sent) == 3  # billed or not, everything is forwarded
    assert dict(model.op_counts) == {
        "heartbeat_send": 1,
        "tuning": 1,  # stamping the request; the reply's metadata is free
        "heartbeat_resp_send": 1,
    }

    model.op_counts.clear()
    port.deliver("n2", HeartbeatRequest(1, "n2", 0, meta))
    port.deliver("n2", HeartbeatResponse(1, "n2", 0, meta))
    port.deliver("n2", HeartbeatResponse(1, "n2", 0))
    port.deliver("n2", AppendEntriesRequest(1, "n2", 0, 0, (), 0))
    port.deliver("n2", AppendEntriesRequest(1, "n2", 0, 0, ("e1", "e2", "e3"), 0))
    assert dict(model.op_counts) == {
        "heartbeat_recv": 1,
        "heartbeat_resp_recv": 2,
        "tuning": 2,
        "append_recv": 1 + 3,  # an empty append still costs one unit
    }

    model.op_counts.clear()
    node.metrics.entries_applied = 2  # applied outside any delivery ...
    node.deliver = lambda sender, payload: setattr(node.metrics, "entries_applied", 5)
    port.deliver("n2", VoteRequest(1, "n2", 0, 0))  # ... billed at the next one
    assert dict(model.op_counts) == {"apply": 5}

    model.op_counts.clear()
    node.alive = False  # paused or crashed: dropped unprocessed, unbilled
    port.deliver("n2", HeartbeatRequest(1, "n2", 0, meta))
    assert dict(model.op_counts) == {}
