"""Transport semantics: UDP loss/duplication, TCP reliability + HOL."""

import numpy as np
import pytest

from repro.net.link import Link
from repro.net.loss_models import BernoulliLoss
from repro.net.transport import (
    MAX_TCP_ATTEMPTS,
    RTO_MIN_MS,
    TcpChannelState,
    tcp_transmission_plan,
    udp_transmission_plan,
)


def make_link(loss=0.0, rtt=100.0, dup=0.0, seed=0):
    link = Link(
        "a",
        "b",
        loss=BernoulliLoss(loss),
        rng=np.random.default_rng(seed),
    )
    link.duplicate_p = dup
    link.set_rtt(rtt)
    return link


def test_udp_delivers_without_loss():
    link = make_link()
    plan = udp_transmission_plan(link)
    assert plan.deliver
    assert plan.delay_ms == pytest.approx(50.0, abs=1.0)


def test_udp_drops_at_full_loss():
    link = make_link(loss=1.0)
    assert not udp_transmission_plan(link).deliver


def test_udp_duplicates():
    link = make_link(dup=1.0)
    plan = udp_transmission_plan(link)
    assert plan.deliver
    assert len(plan.duplicates) == 1


def test_udp_loss_rate_statistics():
    link = make_link(loss=0.25)
    delivered = sum(udp_transmission_plan(link).deliver for _ in range(8000))
    assert abs(delivered / 8000 - 0.75) < 0.02


def test_tcp_always_delivers():
    link = make_link(loss=0.5, seed=3)
    state = TcpChannelState()
    for _ in range(200):
        assert tcp_transmission_plan(link, state, 0.0).deliver


def test_tcp_no_loss_means_no_retransmit():
    link = make_link()
    state = TcpChannelState()
    plan = tcp_transmission_plan(link, state, 0.0)
    assert plan.retransmits == 0
    assert plan.delay_ms == pytest.approx(50.0, abs=1.0)


def test_tcp_loss_becomes_rto_delay():
    link = make_link(loss=0.5, seed=1)
    state = TcpChannelState()
    plans = [tcp_transmission_plan(link, state, float(i) * 1000.0) for i in range(300)]
    retransmitted = [p for p in plans if p.retransmits > 0]
    assert retransmitted, "with 50% loss some segments must retransmit"
    for p in retransmitted:
        assert p.delay_ms >= RTO_MIN_MS


def test_tcp_fifo_head_of_line_blocking():
    """A retransmitted segment delays the segments sent right after it."""
    link = make_link(rtt=100.0)
    state = TcpChannelState()
    # Simulate: segment 1 suffered a retransmission -> delivered late.
    state.last_delivery_ms = 500.0
    plan = tcp_transmission_plan(link, state, now_ms=100.0)
    # Raw delay would be ~50ms (deliver at 150), but FIFO pins it to 500.
    assert plan.delay_ms == pytest.approx(400.0)
    assert state.last_delivery_ms == 500.0


def test_tcp_fifo_monotone_delivery_times():
    link = make_link(loss=0.3, seed=7)
    state = TcpChannelState()
    deliveries = []
    now = 0.0
    for _ in range(500):
        plan = tcp_transmission_plan(link, state, now)
        deliveries.append(now + plan.delay_ms)
        now += 10.0
    assert deliveries == sorted(deliveries)


def test_tcp_gives_up_at_max_attempts():
    link = make_link(loss=1.0)
    state = TcpChannelState()
    plan = tcp_transmission_plan(link, state, 0.0)
    assert plan.deliver  # still delivered (bounded model)
    assert plan.retransmits == MAX_TCP_ATTEMPTS


def test_tcp_srtt_ewma():
    state = TcpChannelState()
    state.observe_rtt(100.0)
    assert state.srtt_ms == 100.0
    state.observe_rtt(200.0)
    assert state.srtt_ms == pytest.approx(112.5)


def test_tcp_rto_floor():
    state = TcpChannelState()
    assert state.rto_ms(10.0) == RTO_MIN_MS
    state.observe_rtt(300.0)
    assert state.rto_ms(10.0) == 600.0
