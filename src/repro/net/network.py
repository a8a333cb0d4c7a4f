"""The network fabric connecting simulated processes.

One :class:`Network` instance is the cluster's switch + kernel stacks:

* it owns one :class:`~repro.net.link.Link` per ordered node pair;
* ``send()`` pushes a message through the link's channel semantics
  (:mod:`repro.net.transport`) and schedules the delivery event;
* partitions and per-pair impairment setters expose the same knobs the
  paper drives through ``tc`` and Docker network surgery.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Any, Protocol

from repro.net.delay_models import MIN_DELAY_MS, NormalJitterDelay
from repro.net.link import JITTER_BLOCK, Link
from repro.net.loss_models import BernoulliLoss, NoLoss, _check_prob
from repro.net.message import Message
from repro.net.stats import LinkStats
from repro.net.transport import CHANNEL_TCP, CHANNEL_UDP, MAX_TCP_ATTEMPTS
from repro.sim.events import PRIORITY_MESSAGE, Event
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry

__all__ = ["Network", "Endpoint"]


class _Delivery(tuple):
    """Allocation-light delivery callback (replaces a per-send closure).

    A ``tuple`` subclass laid out as ``(endpoint, src, payload)``:
    construction is one C-level call (``__init__``-based slotted classes
    pay an interpreter frame per message), and the only Python-level work
    left is ``__call__`` at delivery time.  Binds the endpoint at send
    time.  A binding can outlive a ``detach()`` of its endpoint (dynamic
    membership removes nodes at runtime); that is safe because a removed
    node is stopped first, so the late delivery dies at the process's
    liveness gate.
    """

    __slots__ = ()

    def __call__(self) -> None:
        self[0].deliver(self[1], self[2])


class Endpoint(Protocol):
    """What the fabric needs from an attached process."""

    name: str

    def deliver(self, sender: str, payload: Any) -> None: ...


class Network:
    """Message fabric with per-pair links, partitions, and channel semantics.

    Args:
        loop: the shared event loop.
        rngs: registry used to derive one stream per link (``net/<a>-><b>``),
            so adding links never perturbs other components' randomness.
    """

    def __init__(self, loop: EventLoop, rngs: RngRegistry) -> None:
        self.loop = loop
        self.rngs = rngs
        self._endpoints: dict[str, Endpoint] = {}
        self._links: dict[tuple[str, str], Link] = {}
        #: Same links keyed src → dst → Link: the hot path avoids building
        #: a key tuple per message (kept in sync by add_link).
        self._links_from: dict[str, dict[str, Link]] = {}
        self._partition_of: dict[str, int] | None = None
        self._implicit_group = 0

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def attach(self, endpoint: Endpoint) -> None:
        """Register a process under its name.

        Attaching while a partition is in force places the newcomer in the
        implicit final group — the same group un-listed nodes landed in when
        :meth:`set_partitions` ran.  Without this, a late endpoint had no
        group id at all and ``partitioned()`` compared ``None`` != gid: cut
        off from every grouped node yet fully connected to other late nodes.
        """
        if endpoint.name in self._endpoints:
            raise ValueError(f"endpoint {endpoint.name!r} already attached")
        self._endpoints[endpoint.name] = endpoint
        if self._partition_of is not None and endpoint.name not in self._partition_of:
            self._partition_of[endpoint.name] = self._implicit_group

    def detach(self, name: str) -> None:
        """Unregister a removed node's endpoint.  Idempotent.

        The mirror of the :meth:`attach`-during-partition rule for the
        *detach* direction: the departing node's partition-group entry is
        dropped with it, so a name later re-attached is a genuinely fresh
        endpoint (it lands in the implicit group like any newcomer) rather
        than inheriting the removed node's group id.

        Links stay installed as dead wiring.  Members that have not yet
        learned of the removal — or that process in-flight traffic *from*
        the departed node — still route replies through those links; with
        the endpoint gone the send-time lookup misses and the fabric
        skips the delivery event entirely, so such sends become silent
        drops (the departed-host semantics of a real network) instead of
        ``KeyError``.  In-flight deliveries bound the endpoint object at
        send time and will still fire — inertness there is the endpoint's
        job (a stopped process drops everything at its liveness gate),
        not the fabric's.
        """
        self._endpoints.pop(name, None)
        if self._partition_of is not None:
            self._partition_of.pop(name, None)

    def endpoint(self, name: str) -> Endpoint:
        return self._endpoints[name]

    def node_names(self) -> list[str]:
        return sorted(self._endpoints)

    def add_link(self, link: Link) -> None:
        """Install a directed link (overwrites any previous one, whose TCP
        stream state the newcomer inherits)."""
        old = self._links.get((link.src, link.dst))
        if old is not None:
            link.tcp = old.tcp
            # ``RngRegistry.stream(name)`` hands both the same generator:
            # leave it where the old link's scalar draws would have.
            old._sync()
        self._links[(link.src, link.dst)] = link
        by_dst = self._links_from.get(link.src)
        if by_dst is None:
            by_dst = self._links_from[link.src] = {}
        by_dst[link.dst] = link

    def connect(
        self,
        src: str,
        dst: str,
        one_way_ms: float,
        jitter_sigma_ms: float,
        loss: float = 0.0,
    ) -> None:
        """Build and install the directed ``src → dst`` link every topology
        and late joiner uses: Gaussian-jitter delay, Bernoulli loss, and the
        link's own ``net/<src>-><dst>`` stream (duplication starts off:
        :meth:`set_duplicate` or a ``SetDuplicate`` step turns it on)."""
        self.add_link(
            Link(
                src,
                dst,
                delay=NormalJitterDelay(one_way_ms, jitter_sigma_ms),
                loss=BernoulliLoss(loss),
                rng=self.rngs.stream(f"net/{src}->{dst}"),
            )
        )

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src!r} -> {dst!r} installed") from None

    def links(self) -> list[Link]:
        return [self._links[k] for k in sorted(self._links)]

    # ------------------------------------------------------------------ #
    # impairment control (what `tc` does in the paper)
    # ------------------------------------------------------------------ #

    def set_rtt(self, a: str, b: str, rtt_ms: float) -> None:
        """Set the path RTT between ``a`` and ``b`` (both directions)."""
        self.link(a, b).set_rtt(rtt_ms)
        self.link(b, a).set_rtt(rtt_ms)

    def set_loss(self, a: str, b: str, p: float) -> None:
        """Set the per-direction loss rate between ``a`` and ``b``."""
        self.link(a, b).set_loss_rate(p)
        self.link(b, a).set_loss_rate(p)

    def set_all_rtt(self, rtt_ms: float) -> None:
        """Uniform RTT for every pair (the §IV-B / §IV-C configuration)."""
        for link in self._links.values():
            link.set_rtt(rtt_ms)

    def set_all_loss(self, p: float) -> None:
        for link in self._links.values():
            link.set_loss_rate(p)

    def set_duplicate(self, a: str, b: str, p: float) -> None:
        """Set the per-direction duplication probability between ``a``
        and ``b`` (netem ``duplicate``, both directions)."""
        p = _check_prob(p, "duplicate_p")
        self.link(a, b).duplicate_p = p
        self.link(b, a).duplicate_p = p

    def set_all_duplicate(self, p: float) -> None:
        p = _check_prob(p, "duplicate_p")
        for link in self._links.values():
            link.duplicate_p = p

    # -- asymmetric (gray) faults -------------------------------------- #
    # A real gray failure is usually directional: a NIC that still sends
    # but cannot hear, a congested egress queue, an asymmetric route.
    # These helpers manipulate ONE directed link, unlike the symmetric
    # pair-wise setters above.  Blocking reuses the link's administrative
    # ``up`` flag, so the transmit hot path pays nothing new.

    def block_direction(self, src: str, dst: str) -> None:
        """Drop everything flowing ``src → dst`` (the ``dst → src``
        direction is untouched — that is the whole point)."""
        self.link(src, dst).up = False

    def unblock_direction(self, src: str, dst: str) -> None:
        self.link(src, dst).up = True

    def degrade_direction(
        self,
        src: str,
        dst: str,
        *,
        loss: float | None = None,
        one_way_ms: float | None = None,
    ) -> tuple[float, float]:
        """Gray-degrade one direction: set its loss rate and/or base
        one-way delay, returning the previous ``(loss_rate, one_way_ms)``
        pair so the caller can restore them when the window closes."""
        link = self.link(src, dst)
        prev = (link.loss.rate(), link.one_way_ms)
        if loss is not None:
            link.set_loss_rate(loss)
        if one_way_ms is not None:
            link.delay.set_base(one_way_ms)
        return prev

    def connected(self, a: str, b: str) -> bool:
        """Whether ``a`` and ``b`` are *mutually* connected: both directed
        links installed and administratively up, neither direction fully
        lossy, and no partition between them.  This is the liveness
        oracle's notion of "could these two exchange a round trip" —
        degraded-but-possible (loss < 1) still counts as connected, which
        is exactly what makes gray failures gray."""
        if self.partitioned(a, b):
            return False
        la = self._links.get((a, b))
        lb = self._links.get((b, a))
        if la is None or lb is None:
            return False
        return (
            la.up and lb.up and la.loss.rate() < 1.0 and lb.loss.rate() < 1.0
        )

    # ------------------------------------------------------------------ #
    # partitions
    # ------------------------------------------------------------------ #

    def set_partitions(self, groups: list[set[str]]) -> None:
        """Partition the cluster: traffic only flows within a group.

        Nodes not mentioned in any group form an implicit final group.
        """
        partition_of: dict[str, int] = {}
        for gid, group in enumerate(groups):
            for name in group:
                if name in partition_of:
                    raise ValueError(f"node {name!r} appears in two groups")
                partition_of[name] = gid
        rest = [n for n in self._endpoints if n not in partition_of]
        for name in rest:
            partition_of[name] = len(groups)
        self._partition_of = partition_of
        self._implicit_group = len(groups)

    def clear_partitions(self) -> None:
        self._partition_of = None

    def partitioned(self, a: str, b: str) -> bool:
        if self._partition_of is None:
            return False
        return self._partition_of.get(a) != self._partition_of.get(b)

    # ------------------------------------------------------------------ #
    # send path
    # ------------------------------------------------------------------ #

    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        *,
        channel: str = CHANNEL_TCP,
        size_bytes: int = 128,
    ) -> Message:
        """Transmit ``payload`` from ``src`` to ``dst``.

        Returns the :class:`Message` envelope (mostly for tests); delivery,
        if any, happens via scheduled loop events.  Protocol hot paths that
        never look at the envelope use :meth:`transmit` instead, which
        skips building it.
        """
        msg = Message(src, dst, payload, channel, size_bytes, self.loop.now)
        self.transmit(src, dst, payload, channel, size_bytes)
        return msg

    def transmit(
        self,
        src: str,
        dst: str,
        payload: Any,
        channel: str = CHANNEL_TCP,
        size_bytes: int = 128,
    ) -> None:
        """Envelope-free :meth:`send`: the per-message hot path.

        Link, stats and endpoint are each looked up once, the delivery
        callback is a slotted :class:`_Delivery` rather than a fresh
        closure, partition checks short-circuit on the (common)
        unpartitioned case, and no :class:`Message` object is built —
        every Raft node send goes through here.
        """
        loop = self.loop
        now = loop.now
        try:
            link = self._links_from[src][dst]
        except KeyError:
            raise KeyError(f"no link {src!r} -> {dst!r} installed") from None
        stats = link.stats
        stats.sent += 1
        stats.bytes_sent += size_bytes

        partition_of = self._partition_of
        if not link.up or (
            partition_of is not None
            and partition_of.get(src) != partition_of.get(dst)
        ):
            stats.dropped += 1
            return

        udp = channel == CHANNEL_UDP
        if not udp and channel != CHANNEL_TCP:
            raise ValueError(f"unknown channel {channel!r}")
        # Inline copy of udp_/tcp_transmission_plan, the references pinned by
        # tests/net/test_network.py::test_udp_send_path_matches_transport_reference and
        # tests/net/test_network.py::test_tcp_send_path_matches_transport_reference:
        # draw order (drop draws, delay, then duplicate and its delay)
        # defines the link's stream consumption.
        delay = link._delay
        loss = link._loss
        if (
            link.duplicate_p <= 0.0
            and delay.__class__ is NormalJitterDelay
            and delay.sigma_ms > 0.0
            and (
                (loss.__class__ is BernoulliLoss and loss.p <= 0.0)
                or loss.__class__ is NoLoss
            )
        ):
            # Quiet link (live fields: scenario steps mutate the models in
            # place): the one draw is a standard normal from the link's
            # block, scaled here by NormalJitterDelay.sample's expression.
            i = link._pos
            if i < JITTER_BLOCK:
                z = link._block[i]
                link._pos = i + 1
            else:
                z = link._refill()
            delay_ms = delay.base_ms + delay.sigma_ms * z
            if not delay_ms >= MIN_DELAY_MS:
                delay_ms = MIN_DELAY_MS
        else:
            # The calls Link.draw_drop / draw_delay make, minus their frames,
            # on the stream rewound to its scalar position.
            if link._pos < JITTER_BLOCK:
                link._sync()
            rng = link._rng
            if udp:
                if link.should_drop(rng):
                    stats.dropped += 1
                    return
                delay_ms = link.sample_delay(rng)
                if link.duplicate_p > 0.0 and link.draw_duplicate():
                    # The duplicate's delay is drawn before any scheduling;
                    # the primary is scheduled first, so keeps the lower seq.
                    dup_delay = link.draw_delay()
                    stats.duplicated += 1
                    endpoint = self._endpoints.get(dst)
                    if endpoint is not None:
                        for d in (delay_ms, dup_delay):
                            loop._push_event(
                                now + d,
                                _Delivery((endpoint, src, payload)),
                                PRIORITY_MESSAGE,
                            )
                    return
            elif link.should_drop(rng):
                # A loss costs an RTO (worked out only now), doubling per retry.
                rto = link.tcp.rto_ms(delay.base_ms * 2.0)
                waited = 0.0
                retransmits = 0
                while True:
                    waited += rto * (2.0**retransmits)
                    retransmits += 1
                    if retransmits >= MAX_TCP_ATTEMPTS or not link.should_drop(rng):
                        break
                stats.retransmits += retransmits
                delay_ms = waited + link.sample_delay(rng)
            else:
                delay_ms = link.sample_delay(rng)

        # Delay models clamp samples > 0, so ``deliver_at >= now``.
        deliver_at = now + delay_ms
        if not udp:
            # srtt update on every send; FIFO: a segment cannot overtake the
            # previous one (the clamp is the reference's float expression).
            tcp = link.tcp
            rtt = delay.base_ms * 2.0
            srtt = tcp.srtt_ms
            tcp.srtt_ms = rtt if srtt is None else srtt + (rtt - srtt) / 8.0
            if deliver_at < tcp.last_delivery_ms:
                deliver_at = now + (tcp.last_delivery_ms - now)
            else:
                tcp.last_delivery_ms = deliver_at
        endpoint = self._endpoints.get(dst)
        if endpoint is not None:
            # Inline copy of EventLoop._push_event (as EventLoop.schedule
            # has one): a delegating call costs a frame per message.  Pinned
            # by the twin-loop seqs of
            # tests/net/test_network.py::test_udp_send_path_matches_transport_reference and
            # tests/net/test_network.py::test_tcp_send_path_matches_transport_reference.
            seq = loop._seq
            loop._seq = seq + 1
            event = Event()
            event.append(deliver_at)
            event.append(PRIORITY_MESSAGE)
            event.append(seq)
            event.append(_Delivery((endpoint, src, payload)))
            _heappush(loop._heap, event)

    def broadcast(
        self,
        src: str,
        dsts: list[str],
        payload: Any,
        *,
        channel: str = CHANNEL_TCP,
        size_bytes: int = 128,
    ) -> None:
        """Send the same payload to several peers (independent link draws)."""
        for dst in dsts:
            self.transmit(src, dst, payload, channel, size_bytes)

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    def total_stats(self) -> LinkStats:
        """Cluster-wide counter totals."""
        total = LinkStats()
        for link in self._links.values():
            total = total.merge(link.stats)
        return total
