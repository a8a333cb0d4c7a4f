"""The network fabric connecting simulated processes.

One :class:`Network` instance is the cluster's switch + kernel stacks:

* it owns one :class:`~repro.net.link.Link` per ordered node pair;
* ``send()`` pushes a message through the link's channel semantics
  (:mod:`repro.net.transport`) and schedules the delivery event;
* partitions and per-pair impairment setters expose the same knobs the
  paper drives through ``tc`` and Docker network surgery.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.net.link import Link
from repro.net.message import Message
from repro.net.stats import LinkStats
from repro.net.transport import CHANNEL_TCP, CHANNEL_UDP, MAX_TCP_ATTEMPTS
from repro.sim.events import PRIORITY_MESSAGE
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry

__all__ = ["Network", "Endpoint"]


class _Delivery(tuple):
    """Allocation-light delivery callback (replaces a per-send closure).

    A ``tuple`` subclass laid out as ``(endpoint, stats, src, payload)``:
    construction is one C-level call (``__init__``-based slotted classes
    pay an interpreter frame per message), and the only Python-level work
    left is ``__call__`` at delivery time.  Binds the endpoint and the
    link's stats object at send time.  A binding can outlive a
    ``detach()`` of its endpoint (dynamic membership removes nodes at
    runtime); that is safe because a removed node is stopped first, so
    the late delivery dies at the process's liveness gate.
    """

    __slots__ = ()

    def __call__(self) -> None:
        self[1].delivered += 1
        self[0].deliver(self[2], self[3])


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
        #: Bound once: transmit schedules one event per message.
        self._push_event = loop._push_event
        self._endpoints: dict[str, Endpoint] = {}
        self._links: dict[tuple[str, str], Link] = {}
        #: Same links keyed src → dst → Link: the hot path avoids building
        #: a key tuple per message (kept in sync by add_link).
        self._links_from: dict[str, dict[str, Link]] = {}
        self._partition_of: dict[str, int] | None = None
        self._implicit_group = 0
        #: Messages dropped because of partitions (diagnostics).
        self.partition_drops = 0

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
        self._links[(link.src, link.dst)] = link
        by_dst = self._links_from.get(link.src)
        if by_dst is None:
            by_dst = self._links_from[link.src] = {}
        by_dst[link.dst] = link

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
        self.link(a, b).duplicate_p = float(p)
        self.link(b, a).duplicate_p = float(p)

    def set_all_duplicate(self, p: float) -> None:
        for link in self._links.values():
            link.duplicate_p = float(p)

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
        now = self.loop.now
        by_dst = self._links_from.get(src)
        link = by_dst.get(dst) if by_dst is not None else None
        if link is None:
            raise KeyError(f"no link {src!r} -> {dst!r} installed")
        stats = link.stats
        stats.sent += 1
        stats.bytes_sent += size_bytes

        partition_of = self._partition_of
        if not link.up or (
            partition_of is not None
            and partition_of.get(src) != partition_of.get(dst)
        ):
            self.partition_drops += 1
            stats.dropped += 1
            return

        if channel == CHANNEL_UDP:
            # Inlined udp_transmission_plan: the datagram path is the
            # heartbeat hot path, and the common deliver-no-duplicate case
            # needs no TransmissionPlan allocation.  Draw order (drop,
            # delay, duplicate) must match the transport module exactly —
            # it defines the per-link RNG stream consumption.  The loss and
            # delay models are invoked directly (same calls Link.draw_drop
            # / draw_delay make) to skip one wrapper frame per draw.
            rng = link.rng
            if link.should_drop(rng):
                stats.dropped += 1
                return
            delay_ms = link.sample_delay(rng)
            endpoint = self._endpoints.get(dst)
            if link.duplicate_p <= 0.0:
                if endpoint is not None:
                    # delay models clamp samples >= 0, so the internal
                    # validation-free push is safe here.
                    self._push_event(
                        now + delay_ms,
                        _Delivery((endpoint, stats, src, payload)),
                        PRIORITY_MESSAGE,
                    )
                return
            # Duplicate draw (and its delay draw) must happen before any
            # scheduling so the RNG stream matches the transport module;
            # the primary is scheduled first so it keeps the lower seq.
            dup_delay = None
            if link.draw_duplicate():
                dup_delay = link.draw_delay()
            if endpoint is not None:
                self._push_event(
                    now + delay_ms,
                    _Delivery((endpoint, stats, src, payload)),
                    PRIORITY_MESSAGE,
                )
            if dup_delay is not None:
                stats.duplicated += 1
                if endpoint is not None:
                    self._push_event(
                        now + dup_delay,
                        _Delivery((endpoint, stats, src, payload)),
                        PRIORITY_MESSAGE,
                    )
            return
        if channel != CHANNEL_TCP:
            raise ValueError(f"unknown channel {channel!r}")
        # Inlined tcp_transmission_plan (which stays as the reference the
        # tests compare this against): no TransmissionPlan, and the RTO is
        # only worked out when the first draw is a drop.  Draw order (drop
        # draws, then the delay draw), the srtt update on every send and
        # the float expression of the event time must match it exactly.
        rng = link.rng
        tcp = link.tcp
        rtt = link.rtt_ms
        if link.should_drop(rng):
            rto = tcp.rto_ms(rtt)
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
        srtt = tcp.srtt_ms
        tcp.srtt_ms = rtt if srtt is None else srtt + (rtt - srtt) / 8.0
        # FIFO: cannot overtake the previous segment on this stream.
        deliver_at = now + delay_ms
        if deliver_at < tcp.last_delivery_ms:
            deliver_at = now + (tcp.last_delivery_ms - now)
        else:
            tcp.last_delivery_ms = deliver_at
        endpoint = self._endpoints.get(dst)
        if endpoint is not None:
            self._push_event(
                deliver_at,
                _Delivery((endpoint, stats, src, payload)),
                PRIORITY_MESSAGE,
            )

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
            self.send(src, dst, payload, channel=channel, size_bytes=size_bytes)

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    def total_stats(self) -> LinkStats:
        """Cluster-wide counter totals."""
        total = LinkStats()
        for link in self._links.values():
            total = total.merge(link.stats)
        return total
