"""CPU cost accounting — the ``docker stats`` substitute.

Every message a node sends/receives debits a fixed CPU cost against that
node.  Utilisation over a sampling window is then
``100 × busy_ms / window_ms`` — *percent of one core*, exactly the unit
``docker stats`` reports (so a 2-core container saturates at 200 %, as the
Fig. 7b caption notes).

Like ``docker stats``, the accounting sits *outside* the server.  This
module alone knows what is billed (:data:`BILLED`, by payload class) and
what it costs (:data:`DEFAULT_COSTS_MS`); a :class:`BilledPort` between
one node and the fabric bills as messages pass, and exists only under
``ClusterConfig.with_cost_model`` — otherwise a node talks to the fabric
directly, and :class:`~repro.raft.node.RaftNode` cannot tell either way.

The per-operation costs below are calibrated once, against a single anchor:
an etcd-like leader exchanging ~3 000 heartbeat pairs per second (Fix-K,
N = 65, h ≈ 20 ms) should sit around one full core (Fig. 7b, N = 65).
Everything else the model reports — follower-vs-leader asymmetry, the
Dynatune/Fix-K ordering, CPU tracking the loss staircase — follows from
message *rates*, which the simulation produces mechanistically.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Any

from repro.net.network import Network
from repro.raft.messages import (
    AppendEntriesRequest,
    AppendEntriesResponse,
    ClientReadRequest,
    ClientRequest,
    HeartbeatRequest,
    HeartbeatResponse,
)
from repro.raft.node import RaftNode
from repro.sim.loop import EventLoop

__all__ = ["BILLED", "DEFAULT_COSTS_MS", "BilledPort", "CostModel", "UtilizationSample"]

#: CPU milliseconds per operation (see module docstring for calibration).
DEFAULT_COSTS_MS: dict[str, float] = {
    "heartbeat_send": 0.18,
    "heartbeat_recv": 0.10,
    "heartbeat_resp_send": 0.08,
    "heartbeat_resp_recv": 0.14,
    "tuning": 0.02,  # Dynatune metadata handling, per metadata-carrying msg
    "append_send": 0.06,
    "append_recv": 0.06,
    "append_resp_recv": 0.03,
    "client_request": 0.08,
    "apply": 0.05,
}

#: What is billed, by payload class: ``(kind debited to the sender, kind
#: debited to the receiver)``; ``None`` = that end handles it for free, as
#: it does every class not listed (votes, snapshots, read probes).  An
#: AppendEntries costs one unit per entry carried (at least one), and
#: every entry a node applies costs an ``apply`` (see :class:`BilledPort`).
BILLED: dict[type, tuple[str | None, str | None]] = {
    HeartbeatRequest: ("heartbeat_send", "heartbeat_recv"),
    HeartbeatResponse: ("heartbeat_resp_send", "heartbeat_resp_recv"),
    AppendEntriesRequest: ("append_send", "append_recv"),
    AppendEntriesResponse: (None, "append_resp_recv"),
    ClientRequest: (None, "client_request"),
    ClientReadRequest: (None, "client_request"),
}
_SEND, _RECV = 0, 1
#: Where Dynatune metadata, if carried, costs a ``tuning`` on top: wherever
#: the policy handles it — stamping a heartbeat, receiving one, receiving
#: its response (the response's own metadata is produced by the
#: heartbeat's handling, already billed).
_TUNED = {(HeartbeatRequest, _SEND), (HeartbeatRequest, _RECV), (HeartbeatResponse, _RECV)}


@dataclasses.dataclass(slots=True, frozen=True)
class UtilizationSample:
    """One sampling-window observation for one node."""

    time_ms: float
    node: str
    percent_of_core: float


class CostModel:
    """Accumulates per-node CPU busy time and samples utilisation.

    Args:
        costs_ms: per-operation CPU cost table; unknown kinds cost 0 so new
            trace points never crash old experiments.
        cores: cores per node — only used to report
            :meth:`saturated` (busy beyond ``cores × wall``), the
            utilisation unit itself is percent-of-one-core.
    """

    def __init__(
        self,
        # Test seam: tests bill a one-kind table; runs bill DEFAULT_COSTS_MS.
        # repolint: disable=param-knob-liveness
        costs_ms: dict[str, float] | None = None,
        *,
        cores: float = 2.0,
    ) -> None:
        self.costs_ms = dict(DEFAULT_COSTS_MS if costs_ms is None else costs_ms)
        self.cores = float(cores)
        self.busy_ms: dict[str, float] = defaultdict(float)
        self.busy_by_kind: dict[str, float] = defaultdict(float)
        self.op_counts: dict[str, int] = defaultdict(int)
        self.samples: list[UtilizationSample] = []
        self._last_sampled_busy: dict[str, float] = defaultdict(float)

    # -- accounting -------------------------------------------------------- #

    def charge(self, node: str, kind: str, units: int = 1) -> None:
        """Debit ``units`` operations of ``kind`` against ``node``."""
        cost = self.costs_ms.get(kind, 0.0) * units
        if cost:
            self.busy_ms[node] += cost
            self.busy_by_kind[kind] += cost
        self.op_counts[kind] += units

    # -- sampling (docker stats every N seconds, §IV-C2) -------------------- #

    def start_sampling(
        self,
        loop: EventLoop,
        nodes: list[str],
        *,
        interval_ms: float = 5000.0,
    ) -> None:
        """Begin periodic utilisation sampling for ``nodes``.

        The sampler reschedules itself forever; ``run_until`` bounds it.
        """
        if interval_ms <= 0:
            raise ValueError(f"interval must be > 0 ms, got {interval_ms!r}")

        def _tick() -> None:
            now = loop.now
            for node in nodes:
                busy = self.busy_ms[node]
                delta = busy - self._last_sampled_busy[node]
                self._last_sampled_busy[node] = busy
                self.samples.append(
                    UtilizationSample(
                        time_ms=now,
                        node=node,
                        percent_of_core=100.0 * delta / interval_ms,
                    )
                )

        loop.every(interval_ms, _tick)

    def utilization_series(self, node: str) -> tuple[list[float], list[float]]:
        """``(times_ms, percent_of_core)`` for one node."""
        times = [s.time_ms for s in self.samples if s.node == node]
        vals = [s.percent_of_core for s in self.samples if s.node == node]
        return times, vals

    def saturated(self, node: str, wall_ms: float) -> bool:
        """Whether ``node`` accumulated more CPU than its cores provide."""
        return self.busy_ms[node] > self.cores * wall_ms

    def mean_utilization(self, node: str) -> float:
        """Mean sampled utilisation (percent of one core)."""
        vals = [s.percent_of_core for s in self.samples if s.node == node]
        return sum(vals) / len(vals) if vals else 0.0


class BilledPort:
    """One node's attachment to the fabric while CPU accounting is on.

    The node gets the port as its ``network`` (:meth:`transmit` bills the
    sender and forwards) and the fabric gets it as the node's endpoint
    (:meth:`deliver` bills a running receiver and forwards — a paused or
    crashed node drops the message unprocessed, hence unbilled).  Applies
    are read off the node's ``metrics.entries_applied`` after each
    delivery, so one outside any delivery (a sole voter's timer-flushed
    batch) is billed at the node's next.
    """

    __slots__ = ("name", "node", "_charge", "_forward", "_applied")

    #: The node behind the port, assigned by the builder once it exists
    #: (the node is constructed with the port as its network).
    node: RaftNode

    def __init__(self, model: CostModel, network: Network, name: str) -> None:
        self.name = name
        self._charge = model.charge
        self._forward = network.transmit
        self._applied = 0

    def _bill(self, payload: Any, end: int) -> None:
        cls = payload.__class__
        kind = BILLED.get(cls, (None, None))[end]
        if kind is not None:
            units = max(1, len(payload.entries)) if cls is AppendEntriesRequest else 1
            self._charge(self.name, kind, units)
            if (cls, end) in _TUNED and payload.meta is not None:
                self._charge(self.name, "tuning")

    def transmit(
        self, src: str, dst: str, payload: Any, channel: str, size_bytes: int
    ) -> None:
        self._bill(payload, _SEND)
        self._forward(src, dst, payload, channel, size_bytes)

    def deliver(self, sender: str, payload: Any) -> None:
        node = self.node
        if not node.alive:
            return
        self._bill(payload, _RECV)
        node.deliver(sender, payload)
        applied = node.metrics.entries_applied
        if applied != self._applied:
            self._charge(self.name, "apply", applied - self._applied)
            self._applied = applied
