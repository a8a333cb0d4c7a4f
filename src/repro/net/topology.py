"""Cluster topologies: uniform meshes and the AWS geo-replicated layout.

Two builders cover every experiment:

* :func:`uniform_topology` — full mesh with one RTT/loss/jitter setting for
  all pairs (the single-host Docker testbed of §IV-A—§IV-C);
* :func:`aws_geo_topology` — the five-region deployment of §IV-D (Tokyo,
  London, California, Sydney, São Paulo) with a representative inter-region
  RTT matrix and per-node clock offsets standing in for NTP error.

The RTT matrix is assembled from publicly reported inter-region medians
(cloudping-style measurements, rounded to 5 ms).  The paper does not print
its measured matrix, so these are *representative* values; what Fig. 8
tests is behaviour on a strongly heterogeneous RTT distribution, which any
realistic matrix for these five regions provides.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.net.network import Network
from repro.sim.rng import RngRegistry

__all__ = [
    "AWS_REGIONS",
    "AWS_RTT_MATRIX_MS",
    "ClockModel",
    "uniform_topology",
    "aws_geo_topology",
]

#: Region order used by the paper (§IV-D).
AWS_REGIONS: tuple[str, ...] = (
    "tokyo",
    "london",
    "california",
    "sydney",
    "saopaulo",
)

#: Representative inter-region RTTs in ms (symmetric, diagonal zero).
AWS_RTT_MATRIX_MS: dict[tuple[str, str], float] = {
    ("tokyo", "london"): 210.0,
    ("tokyo", "california"): 105.0,
    ("tokyo", "sydney"): 105.0,
    ("tokyo", "saopaulo"): 255.0,
    ("london", "california"): 135.0,
    ("london", "sydney"): 270.0,
    ("london", "saopaulo"): 185.0,
    ("california", "sydney"): 140.0,
    ("california", "saopaulo"): 170.0,
    ("sydney", "saopaulo"): 310.0,
}


def region_rtt(a: str, b: str) -> float:
    """Look up the symmetric RTT between two regions (0 for a==b)."""
    if a == b:
        return 0.0
    key = (a, b) if (a, b) in AWS_RTT_MATRIX_MS else (b, a)
    try:
        return AWS_RTT_MATRIX_MS[key]
    except KeyError:
        raise KeyError(f"no RTT entry for regions {a!r}, {b!r}") from None


def uniform_topology(
    network: Network,
    names: list[str],
    *,
    rtt_ms: float,
    jitter_sigma_ms: float = 0.0,
    loss: float = 0.0,
) -> None:
    """Install a full mesh of identical links between ``names``.

    Every directed pair gets its own link object and RNG stream, so loss
    and jitter draws are independent per direction — the same independence
    ``tc`` gives each container interface.
    """
    for a in names:
        for b in names:
            if a == b:
                continue
            network.connect(a, b, rtt_ms / 2.0, jitter_sigma_ms, loss)


#: Gaussian jitter of a geo link as a fraction of its one-way delay.
GEO_JITTER_FRACTION = 0.02


def aws_geo_topology(
    network: Network,
    names: list[str],
    *,
    loss: float = 0.0,
) -> dict[str, str]:
    """Install the five-region mesh of §IV-D.

    Node ``names[i]`` is placed in ``AWS_REGIONS[i % 5]``.  Each directed
    link gets Gaussian jitter with ``sigma = GEO_JITTER_FRACTION × one-way
    delay`` — WAN paths jitter roughly proportionally to their length.

    Returns:
        Mapping node name → region.
    """
    placement = {
        name: AWS_REGIONS[i % len(AWS_REGIONS)] for i, name in enumerate(names)
    }
    for a in names:
        for b in names:
            if a == b:
                continue
            rtt = region_rtt(placement[a], placement[b])
            if rtt <= 0.0:
                rtt = 2.0  # same-region pair: ~1 ms one way
            one_way = rtt / 2.0
            network.connect(a, b, one_way, GEO_JITTER_FRACTION * one_way, loss)
    return placement


@dataclasses.dataclass(slots=True)
class ClockModel:
    """Per-node clock offsets standing in for NTP synchronisation error.

    The single-host experiments measure times on one hardware clock (zero
    error); the AWS experiment (§IV-D) reads logs from five machines whose
    clocks are NTP-synchronised, which the paper says introduces "tens of
    milliseconds" of error.  ``offset_ms[node]`` is drawn once per node
    (``N(0, offset_sigma_ms)``); :meth:`read` adds the offset plus white
    read noise to a true timestamp.

    The simulator itself always runs on true time — only the *measurement
    extraction* in :mod:`repro.cluster.measurements` passes timestamps
    through this model, mirroring how NTP skews logs, not physics.
    """

    offset_ms: dict[str, float]
    read_noise_sigma_ms: float
    _rng: np.random.Generator

    @classmethod
    def synchronized(cls, names: list[str]) -> "ClockModel":
        """Perfect clocks (the single-host setup)."""
        return cls(
            offset_ms={n: 0.0 for n in names},
            read_noise_sigma_ms=0.0,
            _rng=np.random.default_rng(0),
        )

    @classmethod
    def ntp(
        cls,
        names: list[str],
        rngs: RngRegistry,
        *,
        offset_sigma_ms: float = 15.0,
        read_noise_sigma_ms: float = 2.0,
    ) -> "ClockModel":
        """NTP-grade clocks: per-node offsets of tens of ms."""
        rng = rngs.stream("clock/ntp")
        offsets = {n: float(rng.normal(0.0, offset_sigma_ms)) for n in names}
        return cls(
            offset_ms=offsets,
            read_noise_sigma_ms=read_noise_sigma_ms,
            _rng=rng,
        )

    def read(self, node: str, true_time_ms: float) -> float:
        """Timestamp ``true_time_ms`` as ``node``'s log would record it."""
        noise = (
            float(self._rng.normal(0.0, self.read_noise_sigma_ms))
            if self.read_noise_sigma_ms > 0.0
            else 0.0
        )
        return true_time_ms + self.offset_ms.get(node, 0.0) + noise
