"""Fig. 8 + §IV-D: the real geo-distributed (AWS) experiment.

Protocol: five ``m5.large``-class servers in Tokyo, London, California,
Sydney and São Paulo; the §IV-B1 leader-kill loop repeated on that
topology.  Clocks are NTP-synchronised, so the paper flags its measured
times as carrying tens of milliseconds of error.

Paper means: detection 1137 → 213 ms (−81 %), OTS 1718 → 1145 ms (−33 %).

Reproduction: Fig. 4's grid with ``geo=True`` — the AWS RTT matrix
of :mod:`repro.net.topology` with proportional WAN jitter, and a
:class:`~repro.net.topology.ClockModel` applying per-node NTP offsets
(σ = 15 ms) *to the measurement extraction only* — the simulator still
runs on exact time, exactly as physics does.
"""

from __future__ import annotations

import dataclasses
import sys

from repro.experiments import fig4_election, grid
from repro.experiments.fig4_election import Fig4Config

__all__ = ["GRID"]

PAPER_NUMBERS = {
    "raft": {"detection": 1137.0, "ots": 1718.0},
    "dynatune": {"detection": 213.0, "ots": 1145.0},
}

#: The WAN round trips get longer warm-up, pause and settle windows.
_GEO = Fig4Config(warmup_ms=10_000.0, sleep_ms=8_000.0, settle_ms=10_000.0, geo=True)

GRID = dataclasses.replace(
    fig4_election.GRID,
    name="fig8_geo",
    full=_GEO,
    smoke=dataclasses.replace(_GEO, n_failures=6),
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
