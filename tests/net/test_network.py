"""Network fabric: delivery, partitions, impairment control, stats."""

import functools
from typing import Any

import pytest

from repro.net.link import Link
from repro.net.loss_models import BernoulliLoss
from repro.net.network import Network
from repro.net.topology import uniform_topology
from repro.sim.events import PRIORITY_MESSAGE
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry


class Sink:
    def __init__(self, name: str):
        self.name = name
        self.got: list[tuple[str, Any]] = []
        self.alive = True

    def deliver(self, sender: str, payload: Any) -> None:
        self.got.append((sender, payload))


@pytest.fixture
def net():
    loop = EventLoop()
    network = Network(loop, RngRegistry(1))
    a, b, c = Sink("a"), Sink("b"), Sink("c")
    for s in (a, b, c):
        network.attach(s)
    uniform_topology(network, ["a", "b", "c"], rtt_ms=10.0)
    return loop, network, a, b, c


def test_send_delivers_after_one_way_delay(net):
    loop, network, a, b, c = net
    network.send("a", "b", "hello", channel="udp")
    loop.run()
    assert b.got == [("a", "hello")]
    assert loop.now == pytest.approx(5.0, abs=0.5)


def test_broadcast_reaches_all(net):
    loop, network, a, b, c = net
    network.broadcast("a", ["b", "c"], "x", channel="tcp")
    loop.run()
    assert b.got and c.got


def test_one_payload_to_two_peers_draws_per_link(net):
    """Each directed link draws its own jitter from its own stream: the
    same payload sent to two peers arrives at two different instants, each
    the one the link's stream dictates."""
    loop, network, a, b, c = net
    for link in network.links():
        link.delay.sigma_ms = 0.4
    at: dict[str, float] = {}
    for sink in (b, c):
        sink.deliver = lambda sender, payload, name=sink.name: at.setdefault(name, loop.now)  # type: ignore[method-assign]
        network.transmit("a", sink.name, "x", "udp", 100)
    loop.run()
    want = {
        name: max(5.0 + 0.4 * RngRegistry(1).fresh(f"net/a->{name}").standard_normal(), 1e-3)
        for name in ("b", "c")
    }
    assert at == want and at["b"] != at["c"]


def test_duplicate_attach_rejected(net):
    loop, network, a, b, c = net
    with pytest.raises(ValueError):
        network.attach(Sink("a"))


def test_missing_link_raises(net):
    loop, network, a, b, c = net
    with pytest.raises(KeyError):
        network.link("a", "nope")


def test_unknown_channel_rejected(net):
    loop, network, a, b, c = net
    with pytest.raises(ValueError):
        network.send("a", "b", "x", channel="quic")


def test_partition_blocks_cross_group(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}, {"b", "c"}])
    network.send("a", "b", "x", channel="udp")
    network.send("b", "c", "y", channel="udp")
    loop.run()
    assert b.got == []
    assert c.got == [("b", "y")]
    assert network.total_stats().dropped == 1


def test_partition_implicit_rest_group(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}])  # b, c form the implicit rest
    assert network.partitioned("a", "b")
    assert not network.partitioned("b", "c")


def test_partition_clear_restores(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}, {"b"}])
    network.clear_partitions()
    network.send("a", "b", "x", channel="udp")
    loop.run()
    assert b.got == [("a", "x")]


def test_node_in_two_groups_rejected(net):
    loop, network, a, b, c = net
    with pytest.raises(ValueError):
        network.set_partitions([{"a"}, {"a", "b"}])


def test_link_down_drops(net):
    loop, network, a, b, c = net
    network.link("a", "b").up = False
    network.send("a", "b", "x", channel="udp")
    loop.run()
    assert b.got == []
    # reverse direction unaffected
    network.send("b", "a", "y", channel="udp")
    loop.run()
    assert a.got == [("b", "y")]


def test_set_rtt_symmetric(net):
    loop, network, a, b, c = net
    network.set_rtt("a", "b", 80.0)
    assert network.link("a", "b").one_way_ms == 40.0
    assert network.link("b", "a").one_way_ms == 40.0
    assert network.link("a", "c").one_way_ms == 5.0  # untouched


def test_set_all_rtt_and_loss(net):
    loop, network, a, b, c = net
    network.set_all_rtt(60.0)
    network.set_all_loss(1.0)
    for link in network.links():
        assert link.one_way_ms == 30.0
        assert link.loss.rate() == 1.0


def test_stats_counters(net):
    loop, network, a, b, c = net
    network.set_loss("a", "b", 1.0)
    network.send("a", "b", "x", channel="udp", size_bytes=100)
    network.send("a", "c", "y", channel="udp", size_bytes=50)
    loop.run()
    total = network.total_stats()
    assert total.sent == 2
    assert total.dropped == 1
    assert (b.got, c.got) == ([], [("a", "y")])
    assert total.bytes_sent == 150
    lossy = network.link("a", "b").stats
    assert lossy.dropped == lossy.sent == 1


def test_delivery_to_detached_endpoint_is_noop(net):
    loop, network, a, b, c = net
    # Install a link to a name that has no endpoint.
    network.add_link(Link("a", "ghost", rng=network.rngs.stream("x")))
    network.send("a", "ghost", "x", channel="udp")
    loop.run()  # must not raise


def test_udp_send_path_matches_transport_reference(net):
    check_udp_against_reference(net, loss=0.3, duplicate_p=0.4)


def test_udp_quiet_send_path_matches_transport_reference(net):
    """No loss, no duplication: the sends take the quiet branch (jitter
    served from the link's pre-drawn block)."""
    check_udp_against_reference(net, loss=0.0, duplicate_p=0.0)


def check_udp_against_reference(net, *, loss, duplicate_p):
    """Network.send inlines udp_transmission_plan; pin the two together.

    The inlined fast path must consume the per-link RNG stream in exactly
    the reference order (drop, delay, duplicate, duplicate-delay) and
    produce the same outcomes, or seeded experiments stop being
    reproducible.  Drive an identically-seeded twin link through
    udp_transmission_plan and compare deliveries, delays and counters.
    """
    from repro.net.loss_models import BernoulliLoss
    from repro.net.transport import udp_transmission_plan
    from repro.sim.rng import RngRegistry

    loop, network, a, b, c = net
    link = network.link("a", "b")
    link.delay.sigma_ms = 0.4
    link.loss = BernoulliLoss(loss)
    link.duplicate_p = duplicate_p
    link.rng = RngRegistry(777).stream("pin")

    twin = Link(
        "a",
        "b",
        delay=link.delay,
        loss=BernoulliLoss(loss),
        rng=RngRegistry(777).stream("pin"),
    )
    twin.duplicate_p = duplicate_p

    # The reference deliveries go onto a twin loop through _push_event,
    # which Network.transmit also inlines: same (time, priority, seq) per
    # delivery, and the same delivery order, ties included.
    ref_loop = EventLoop()
    assert loop.pending == 0 and loop._seq == ref_loop._seq
    got: list[tuple[float, int]] = []
    ref_got: list[tuple[float, int]] = []
    b.deliver = lambda sender, payload: got.append((loop.now, payload))  # type: ignore[method-assign]

    n_msgs = 200
    for i in range(n_msgs):
        t0 = loop.now
        network.send("a", "b", i, channel="udp")
        plan = udp_transmission_plan(twin)
        if plan.deliver:
            for delay_ms in (plan.delay_ms, *plan.duplicates):
                ref_loop._push_event(
                    t0 + delay_ms,
                    functools.partial(lambda i: ref_got.append((ref_loop.now, i)), i),
                    PRIORITY_MESSAGE,
                )
    assert sorted(e[:3] for e in loop._heap) == sorted(e[:3] for e in ref_loop._heap)
    loop.run()
    ref_loop.run()

    assert got == ref_got
    # Both streams must have advanced identically: next draw agrees.
    assert link.rng.random() == twin.rng.random()
    stats = link.stats
    assert stats.sent == n_msgs
    assert stats.dropped == n_msgs - (len(got) - stats.duplicated)


@pytest.mark.parametrize("loss", [0.0, 0.2, 1.0])
def test_tcp_send_path_matches_transport_reference(net, loss):
    """Network.transmit inlines tcp_transmission_plan; pin the two together.

    Twin links on twin RNG streams, one driven through the fabric and one
    through the reference plan (delivered, as ``schedule`` would, at
    ``now + plan.delay_ms``): delivery instants must be *equal*, not
    close, through a ``tc`` RTT change mid-stream, a FIFO clamp (RTT drops
    while earlier segments are still in flight) and a link replaced
    through ``add_link`` — whose TCP connection, FIFO horizon and smoothed
    RTT included, must survive the swap.
    """
    from repro.net.delay_models import NormalJitterDelay
    from repro.net.transport import TcpChannelState, tcp_transmission_plan

    loop, network, a, b, c = net

    def shaped(rtt_ms, rng):
        return Link(
            "a",
            "b",
            delay=NormalJitterDelay(rtt_ms / 2.0, 0.4),
            loss=BernoulliLoss(loss),
            rng=rng,
        )

    first = link = shaped(10.0, RngRegistry(777).stream("pin"))
    network.add_link(link)
    twin = shaped(10.0, RngRegistry(777).stream("pin"))
    state = TcpChannelState()

    deliveries: list[tuple[float, int]] = []
    b.deliver = lambda sender, payload: deliveries.append((loop.now, payload))  # type: ignore[method-assign]
    # The reference deliveries also go onto a twin loop through
    # _push_event, which Network.transmit inlines: same seq per delivery.
    ref_loop = EventLoop()
    assert loop.pending == 0 and loop._seq == ref_loop._seq
    ref_got: list[tuple[float, int]] = []

    expected: list[tuple[float, int]] = []
    retransmits = clamped = 0
    for i in range(400):
        if i == 100:  # tc change mid-stream
            link.set_rtt(240.0)
            twin.set_rtt(240.0)
        if i == 200:  # replaced by a much faster link: FIFO must still hold
            link = shaped(4.0, link.rng)
            network.add_link(link)
            twin.delay = NormalJitterDelay(2.0, 0.4)
            assert link.tcp is first.tcp
        if i == 300:  # and the same clamp on one link object
            link.set_rtt(200.0)
            twin.set_rtt(200.0)
        if i == 350:
            link.set_rtt(2.0)
            twin.set_rtt(2.0)
        now = loop.now
        horizon = state.last_delivery_ms
        network.transmit("a", "b", i, "tcp", 100)
        plan = tcp_transmission_plan(twin, state, now)
        assert plan.deliver
        expected.append((now + plan.delay_ms, i))
        ref_loop._push_event(
            now + plan.delay_ms,
            functools.partial(lambda i: ref_got.append((ref_loop.now, i)), i),
            PRIORITY_MESSAGE,
        )
        # Twin heaps, same pushes and pops so far: equal entry by entry.
        assert [e[:3] for e in loop._heap] == [e[:3] for e in ref_loop._heap]
        retransmits += plan.retransmits
        clamped += state.last_delivery_ms == horizon
        # Irregular send instants: ``now + (horizon - now)`` must round
        # differently from ``horizon`` often enough to tell them apart.
        loop.run_until(now + 0.7 + 0.013 * (i % 7))
        ref_loop.run_until(now + 0.7 + 0.013 * (i % 7))
    loop.run()

    # Exact floats.  Sorted, because a clamped segment is scheduled at
    # ``now + (horizon - now)``, which can round an ulp *below* the horizon
    # and so overtake the segment it queued behind — the reference's
    # arithmetic, kept bit for bit.
    assert deliveries == sorted(expected, key=lambda e: e[0])
    ref_loop.run()
    assert deliveries == ref_got
    assert clamped > 50 or loss == 1.0  # the clamp really was exercised
    assert first.stats.retransmits + link.stats.retransmits == retransmits
    assert (retransmits > 0) == (loss > 0.0)
    assert first.stats.sent + link.stats.sent == 400
    assert len(deliveries) == 400
    assert first.stats.dropped == link.stats.dropped == 0
    assert (link.tcp.last_delivery_ms, link.tcp.srtt_ms) == (
        state.last_delivery_ms,
        state.srtt_ms,
    )
    assert link.rng.bit_generator.state == twin.rng.bit_generator.state


def test_tcp_loss_delays_but_delivers(net):
    loop, network, a, b, c = net
    network.link("a", "b").loss = BernoulliLoss(0.9)
    network.link("a", "b").rng = network.rngs.stream("lossy")
    for _ in range(20):
        network.send("a", "b", "x", channel="tcp")
    loop.run()
    assert len(b.got) == 20  # reliable despite 90% loss


# -- partitions vs. late attachment ---------------------------------------- #


def test_attach_after_partition_joins_implicit_group(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}, {"b"}])  # c lands in the implicit group 2
    late = Sink("d")
    network.attach(late)
    # The newcomer must behave exactly like the unlisted node "c": cut off
    # from the named groups but connected to the implicit rest group.
    assert network.partitioned("d", "a")
    assert network.partitioned("d", "b")
    assert not network.partitioned("d", "c")


def test_attach_after_partition_delivers_within_rest_group(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}])
    late = Sink("d")
    network.attach(late)
    from repro.net.link import Link

    for src, dst in (("c", "d"), ("d", "c"), ("a", "d"), ("d", "a")):
        network.add_link(Link(src, dst))
    network.send("c", "d", "hello", channel="udp")
    network.send("a", "d", "blocked", channel="udp")
    loop.run()
    assert late.got == [("c", "hello")]
    assert network.link("a", "d").stats.dropped == 1
    assert network.link("c", "d").stats.dropped == 0


def test_clear_partitions_resets_late_attach_state(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}])
    network.clear_partitions()
    late = Sink("e")
    network.attach(late)
    assert not network.partitioned("e", "a")
