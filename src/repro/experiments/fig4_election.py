"""Fig. 4 + §IV-B1: election performance under stable network conditions.

Protocol (paper §IV-B1): five servers, pairwise RTT fixed at 100 ms, zero
packet loss, no injected jitter.  The leader is failed (container sleep)
repeatedly; detection time and OTS time are measured from logs.  The paper
reports, over 1000 failures:

=====================  ==========  ==========
quantity               Raft        Dynatune
=====================  ==========  ==========
mean detection          1205 ms      237 ms   (−80 %)
mean OTS                1449 ms      797 ms   (−45 %)
mean randomizedTimeout  1454 ms      152 ms
election time (§IV-E)    244 ms      560 ms
=====================  ==========  ==========

Each system is one cell of :data:`GRID` (``python -m
repro.experiments.fig4_election``): :func:`run_one` runs the protocol and
returns the per-episode samples plus the CDF series of the figure.  With
``Fig4Config(geo=True)`` the same loop runs on the AWS placement with logs
read through NTP clocks: that is Fig. 8 (:mod:`repro.experiments.fig8_geo`).
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Sequence

import numpy as np

from repro.analysis.asciiplot import cdf_chart
from repro.analysis.cdf import empirical_cdf
from repro.analysis.stats import SummaryStats, summarize
from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.harness import ClusterHarness
from repro.cluster.measurements import FailureEpisode, extract_failure_episodes
from repro.experiments import grid
from repro.experiments.common import make_policy_factory
from repro.net.topology import ClockModel

__all__ = ["Fig4Config", "SystemElectionResult", "GRID", "run_one", "reduction"]

PAPER_NUMBERS = {
    "raft": {"detection": 1205.0, "ots": 1449.0, "randomized_timeout": 1454.0, "election": 244.0},
    "dynatune": {"detection": 237.0, "ots": 797.0, "randomized_timeout": 152.0, "election": 560.0},
}

N_NODES = 5
#: Pairwise RTT of the uniform testbed (the AWS placement has its own).
RTT_MS = 100.0
SEED = 42
#: §IV-D: per-node NTP clock offsets the geo run's logs are read through.
NTP_OFFSET_SIGMA_MS = 15.0


@dataclasses.dataclass(slots=True, frozen=True)
class Fig4Config:
    """One system's leader-kill election experiment (the grid's cells
    derive one per system)."""

    system: str = "raft"
    #: Leader kills (paper: 1000; Fig. 8 too).
    n_failures: int = 1000
    warmup_ms: float = 8_000.0
    sleep_ms: float = 6_000.0
    settle_ms: float = 8_000.0
    #: Fig. 8: the AWS placement, logs timestamped by NTP clocks.
    geo: bool = False


@dataclasses.dataclass(slots=True, frozen=True)
class SystemElectionResult:
    """Per-system outcome: raw samples, summaries and CDF series."""

    system: str
    episodes: tuple[FailureEpisode, ...]
    detection_ms: np.ndarray
    ots_ms: np.ndarray
    election_ms: np.ndarray
    randomized_timeout_ms: np.ndarray
    detection_summary: SummaryStats
    ots_summary: SummaryStats
    detection_cdf: tuple[np.ndarray, np.ndarray]
    ots_cdf: tuple[np.ndarray, np.ndarray]
    #: node → AWS region (empty on the uniform testbed).
    placement: dict[str, str]

    @property
    def mean_detection_ms(self) -> float:
        return self.detection_summary.mean

    @property
    def mean_ots_ms(self) -> float:
        return self.ots_summary.mean

    @property
    def mean_election_ms(self) -> float:
        return float(self.election_ms.mean())

    @property
    def mean_randomized_timeout_ms(self) -> float:
        return float(self.randomized_timeout_ms.mean())


def run_one(config: Fig4Config) -> SystemElectionResult:
    """Run the §IV-B1 failure loop for one system."""
    system = config.system
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=N_NODES,
            seed=SEED,
            rtt_ms=RTT_MS,
            topology="aws" if config.geo else "uniform",
        ),
        make_policy_factory(system),
    )
    # The clocks only timestamp the logs; the simulator runs on exact time.
    clock = (
        ClockModel.ntp(cluster.names, cluster.rngs, offset_sigma_ms=NTP_OFFSET_SIGMA_MS)
        if config.geo
        else None
    )
    cluster.start()
    harness = ClusterHarness(cluster)
    harness.run_leader_failure_loop(
        config.n_failures,
        warmup_ms=config.warmup_ms,
        sleep_ms=config.sleep_ms,
        settle_ms=config.settle_ms,
    )
    episodes = tuple(
        e
        for e in extract_failure_episodes(cluster.trace, clock=clock, cluster_size=N_NODES)
        if e.resolved
    )
    if not episodes:
        raise RuntimeError(f"fig4[{system}]: no resolved failure episodes")
    detection = np.array([e.detection_latency_ms for e in episodes])
    ots = np.array([e.ots_ms for e in episodes])
    election = np.array([e.election_latency_ms for e in episodes])
    # §IV-B1's "mean randomizedTimeout": cluster-wide mean at the failure
    # instant (the per-detector value is min-biased by construction).
    rts = np.array(
        [
            e.randomized_timeout_cluster_mean_ms
            for e in episodes
            if e.randomized_timeout_cluster_mean_ms is not None
        ]
    )
    if rts.size == 0:
        rts = np.array(
            [
                e.randomized_timeout_at_detection_ms
                for e in episodes
                if e.randomized_timeout_at_detection_ms is not None
            ]
        )
    return SystemElectionResult(
        system=system,
        episodes=episodes,
        detection_ms=detection,
        ots_ms=ots,
        election_ms=election,
        randomized_timeout_ms=rts,
        detection_summary=summarize(detection),
        ots_summary=summarize(ots),
        detection_cdf=empirical_cdf(detection),
        ots_cdf=empirical_cdf(ots),
        placement=dict(cluster.placement or {}),
    )


def reduction(runs: Sequence[SystemElectionResult], metric: str) -> float:
    """Relative reduction of Dynatune's mean ``metric``
    (``detection``/``ots``) against Raft's."""
    base = getattr(grid.find(runs, system="raft"), f"mean_{metric}_ms")
    new = getattr(grid.find(runs, system="dynatune"), f"mean_{metric}_ms")
    return 1.0 - new / base


def _summary(runs: Sequence[SystemElectionResult]) -> list[str]:
    lines = []
    if {"raft", "dynatune"} <= {r.system for r in runs}:
        lines.append(
            f"reduction vs Raft: detection {100 * reduction(runs, 'detection'):.0f} %, "
            f"OTS {100 * reduction(runs, 'ots'):.0f} %"
        )
    if runs[0].placement:
        lines.append(
            "placement: " + ", ".join(f"{n}={r}" for n, r in runs[0].placement.items())
        )
    cdfs = {
        f"{r.system} {metric}": getattr(r, f"{metric}_cdf")
        for r in runs
        for metric in ("detection", "ots")
    }
    return [*lines, "", cdf_chart(cdfs, title="CDFs of detection and OTS times")]


GRID = grid.Grid(
    name="fig4_election",
    full=Fig4Config(),
    smoke=Fig4Config(n_failures=6),
    cells=lambda base, systems: [dataclasses.replace(base, system=s) for s in systems],
    run_one=run_one,
    check=lambda runs: [],
    title=lambda c: (
        f"AWS placement, NTP σ={NTP_OFFSET_SIGMA_MS:g} ms" if c.geo else f"uniform {RTT_MS:.0f} ms RTT"
    ) + f", {c.n_failures} leader failures",
    columns=("system", "detection", "OTS", "election", "randTO"),
    row=lambda r: (
        r.system,
        *(
            f"{getattr(r, f'mean_{m}_ms'):.0f} ms"
            for m in ("detection", "ots", "election", "randomized_timeout")
        ),
    ),
    held=grid.NO_GATES,
    summary=_summary,
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
