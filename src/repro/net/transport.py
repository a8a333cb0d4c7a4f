"""Channel semantics: UDP datagrams and TCP streams.

The paper's etcd baseline carries *all* Raft traffic over TCP; Dynatune
moves heartbeats to UDP so losses are visible to the estimator instead of
being masked by retransmission (§III-E).  Both behaviours matter for the
evaluation:

* **UDP** — packets can be dropped (the loss process decides), reordered
  (independent per-packet jitter) and duplicated.  This is what exercises
  Dynatune's ids-list dedup/ordering logic and the loss-rate estimator.
* **TCP** — every segment is eventually delivered, in FIFO order per
  directed pair.  A loss costs one retransmission timeout (RTO), and FIFO
  ordering converts that into *head-of-line blocking*: every message behind
  the lost one stalls too.  This is exactly why TCP-heartbeat Raft suffers
  correlated heartbeat gaps under loss (§II-C2) — the behaviour emerges here
  rather than being scripted.

The RTO model is deliberately minimal but shaped like the kernel's:
``RTO = max(rto_min, 2 × path RTT)`` with exponential backoff per retry and
Linux's default ``rto_min`` of 200 ms.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # Link holds a TcpChannelState; annotations only here
    from repro.net.link import Link

__all__ = [
    "CHANNEL_UDP",
    "CHANNEL_TCP",
    "TcpChannelState",
    "udp_transmission_plan",
    "tcp_transmission_plan",
    "TransmissionPlan",
]

CHANNEL_UDP = "udp"
CHANNEL_TCP = "tcp"

#: Linux default minimum retransmission timeout (ms).
RTO_MIN_MS = 200.0
#: Give-up bound on retransmissions per segment.  In practice unreachable for
#: the loss rates in the paper (<= 50 %); it guards the simulator against a
#: schedule that sets loss = 1.0 on a TCP link.
MAX_TCP_ATTEMPTS = 30


@dataclasses.dataclass(slots=True)
class TransmissionPlan:
    """Outcome of pushing one message through a channel.

    Attributes:
        deliver: whether the message reaches the destination at all.
        delay_ms: total latency from send to delivery (ms).
        duplicates: extra delivery delays (UDP duplication).
        retransmits: number of TCP retries that were needed.
    """

    deliver: bool
    delay_ms: float = 0.0
    duplicates: tuple[float, ...] = ()
    retransmits: int = 0


def udp_transmission_plan(link: Link) -> TransmissionPlan:
    """Datagram semantics: one shot, may drop, may duplicate, may reorder."""
    if link.draw_drop():
        return TransmissionPlan(deliver=False)
    delay = link.draw_delay()
    duplicates: tuple[float, ...] = ()
    if link.draw_duplicate():
        # The duplicate takes its own independent path delay.
        duplicates = (link.draw_delay(),)
    return TransmissionPlan(deliver=True, delay_ms=delay, duplicates=duplicates)


class TcpChannelState:
    """Per-directed-pair TCP stream state: FIFO horizon and RTT estimate.

    One instance exists per ``(src, dst)`` pair (per direction), matching
    one TCP connection in etcd's peer transport.
    """

    __slots__ = ("last_delivery_ms", "srtt_ms")

    def __init__(self) -> None:
        #: Latest delivery time already promised on this stream; later
        #: segments may not be delivered before it (FIFO).
        self.last_delivery_ms = 0.0
        #: Smoothed RTT estimate; seeded lazily from the link's nominal RTT.
        self.srtt_ms: float | None = None

    def observe_rtt(self, rtt_ms: float) -> None:
        """EWMA update, alpha = 1/8 as in RFC 6298."""
        if self.srtt_ms is None:
            self.srtt_ms = rtt_ms
        else:
            self.srtt_ms += (rtt_ms - self.srtt_ms) / 8.0

    def rto_ms(self, nominal_rtt_ms: float) -> float:
        rtt = self.srtt_ms if self.srtt_ms is not None else nominal_rtt_ms
        return max(RTO_MIN_MS, 2.0 * rtt)


def tcp_transmission_plan(
    link: Link, state: TcpChannelState, now_ms: float
) -> TransmissionPlan:
    """Reliable-stream semantics: always delivers, loss becomes delay.

    The segment is (re)transmitted until the loss process lets it through;
    each failed attempt costs one RTO with exponential backoff.  Delivery
    time is then clamped to the stream's FIFO horizon.
    """
    waited = 0.0
    retransmits = 0
    rto = state.rto_ms(link.rtt_ms)
    while link.draw_drop():
        waited += rto * (2.0**retransmits)
        retransmits += 1
        if retransmits >= MAX_TCP_ATTEMPTS:
            break
    delay = waited + link.draw_delay()
    state.observe_rtt(link.rtt_ms)

    # FIFO: cannot overtake the previous segment on this stream.
    deliver_at = now_ms + delay
    if deliver_at < state.last_delivery_ms:
        deliver_at = state.last_delivery_ms
        delay = deliver_at - now_ms
    state.last_delivery_ms = deliver_at
    return TransmissionPlan(deliver=True, delay_ms=delay, retransmits=retransmits)
