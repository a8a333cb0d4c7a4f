"""Network substrate: the simulator's replacement for Docker veth + ``tc``.

The paper shapes inter-container traffic with ``tc``/netem (delay and loss on
each container's interface, §IV-A) and switches Dynatune's heartbeats from
TCP to UDP (§III-E).  This package models the same stack:

* :mod:`~repro.net.delay_models` / :mod:`~repro.net.loss_models` — per-link
  delay distributions and loss processes (Bernoulli and bursty
  Gilbert–Elliott);
* :class:`~repro.net.link.Link` — a directed channel with delay, loss,
  duplication and reordering;
* :class:`~repro.net.network.Network` — the fabric: node registry, links,
  partitions;
* :mod:`~repro.net.transport` — ``udp`` (lossy, unordered) and ``tcp``
  (reliable, FIFO; loss shows up as retransmission delay) channel semantics;
* :mod:`~repro.net.topology` — uniform meshes and the 5-region AWS geo
  topology of §IV-D, plus the NTP clock-offset model.

Scripted, time-varying conditions (the RTT patterns of §IV-C1, the loss
staircase of §IV-C2) are not this package's business: the fabric exposes
the knobs (``set_all_rtt``, ``set_loss``, …) and :mod:`repro.scenarios`,
the one timeline engine, turns them (:mod:`repro.scenarios.profiles`).
"""

from repro.net.delay_models import (
    ConstantDelay,
    DelayModel,
    LognormalJitterDelay,
    NormalJitterDelay,
    UniformJitterDelay,
)
from repro.net.link import Link
from repro.net.loss_models import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from repro.net.message import Message
from repro.net.network import Network
from repro.net.stats import LinkStats
from repro.net.topology import (
    AWS_REGIONS,
    AWS_RTT_MATRIX_MS,
    ClockModel,
    aws_geo_topology,
    uniform_topology,
)
from repro.net.transport import CHANNEL_TCP, CHANNEL_UDP, TcpChannelState

__all__ = [
    "AWS_REGIONS",
    "AWS_RTT_MATRIX_MS",
    "BernoulliLoss",
    "CHANNEL_TCP",
    "CHANNEL_UDP",
    "ClockModel",
    "ConstantDelay",
    "DelayModel",
    "GilbertElliottLoss",
    "Link",
    "LinkStats",
    "LognormalJitterDelay",
    "LossModel",
    "Message",
    "Network",
    "NoLoss",
    "NormalJitterDelay",
    "TcpChannelState",
    "UniformJitterDelay",
    "aws_geo_topology",
    "uniform_topology",
]
