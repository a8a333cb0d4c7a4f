"""Fig. 6: adaptivity to RTT fluctuations (§IV-C1).

Two patterns, three systems (Dynatune, Raft, Raft-Low), five servers, no
requests, no induced failures.  Every second the harness samples each
server's current ``randomizedTimeout``; the figure plots the third
(``f+1``) smallest — the level at which a majority would declare the
leader dead — plus the ground-truth RTT and OTS shading for leaderless
periods.

* **gradual** (Fig. 6a): RTT 50 → 200 → 50 ms in 10 ms steps, one dwell per
  value.  Expectations: Dynatune's series tracks the RTT; Raft sits near
  1.5 × 1000 ms; Raft-Low thrashes once the RTT approaches/exceeds its
  100 ms timeout, recovering only when randomization draws land above the
  RTT.
* **radical** (Fig. 6b): 50 ms → 500 ms step → back.  Expectations:
  Dynatune's followers false-detect (timers expire), discard measurements
  and fall back to the 1000 ms default, but the pre-vote aborts when the
  live leader's heartbeats arrive — no OTS; Raft rides it out; Raft-Low
  loses the leader for the whole spike.

Every directed link carries a heavy-tailed one-way delay (a lognormal
excess over the base, :class:`~repro.net.delay_models.LognormalJitterDelay`):
the testbed noise that triggers Raft-Low's elections.  Raft's heartbeats
ride TCP, so one tail draw holds back every later segment on that channel
(head-of-line) and opens a gap a 100 ms timeout cannot ride out;
Dynatune's UDP heartbeats draw independently, and the tail's spread widens
its σ term and so its Et.

Each (system, pattern) pair is one cell of :data:`GRID`; ``python -m
repro.experiments.fig6_rtt --pattern radical`` runs Fig. 6b alone.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Sequence

import numpy as np

from repro.analysis.asciiplot import line_chart
from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.harness import ClusterHarness
from repro.cluster.measurements import (
    kth_smallest_series,
    leaderless_intervals,
    randomized_timeout_matrix,
    total_interval_length,
)
from repro.experiments import grid
from repro.experiments.common import make_policy_factory
from repro.net.delay_models import LognormalJitterDelay
from repro.scenarios.profiles import gradual_rtt_profile, radical_rtt_profile
from repro.scenarios.scenario import Scenario
from repro.sim.clock import SECOND

__all__ = ["Fig6Config", "SystemRttResult", "GRID", "run_one"]

PATTERNS = ("gradual", "radical")
N_NODES = 5
SEED = 42
WARMUP_MS = 10_000.0
#: Quiet time after the pattern's last dwell.
TAIL_MS = 5_000.0
#: Median (ms) and log-space σ of every link's lognormal delay excess.
NOISE_EXCESS_MEDIAN_MS = 2.0
NOISE_SIGMA_LOG = 1.5


@dataclasses.dataclass(slots=True, frozen=True)
class Fig6Config:
    """One system under one RTT pattern (the grid's cells derive one per
    system and pattern)."""

    system: str = "dynatune"
    pattern: str = "gradual"
    #: Dwell per RTT step (paper: 60 s).
    dwell_ms: float = 60_000.0

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")

    def schedule(self) -> Scenario:
        profile = gradual_rtt_profile if self.pattern == "gradual" else radical_rtt_profile
        return profile(dwell_ms=self.dwell_ms, start_ms=WARMUP_MS)

    def duration_ms(self) -> float:
        sched = self.schedule()
        return sched.end_ms + self.dwell_ms + TAIL_MS


@dataclasses.dataclass(slots=True, frozen=True)
class SystemRttResult:
    """Per-system Fig. 6 series."""

    system: str
    pattern: str
    #: Sample times (ms).
    times_ms: np.ndarray
    #: f+1-smallest randomizedTimeout per sample (ms) — the plotted line.
    kth_randomized_timeout_ms: np.ndarray
    #: Ground-truth RTT at each sample (ms).
    rtt_ms: np.ndarray
    #: Leaderless periods after the first election (the OTS shading).
    ots_intervals: tuple[tuple[float, float], ...]
    ots_total_ms: float
    #: Term-incrementing elections after the first leader was established.
    unnecessary_elections: int
    #: Election-timer expirations after the first leader (false detections).
    false_detections: int


def run_one(config: Fig6Config) -> SystemRttResult:
    system = config.system
    schedule = config.schedule()
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=N_NODES,
            seed=SEED,
            rtt_ms=schedule.steps[0].rtt_ms,  # warm up at the first level
        ),
        make_policy_factory(system),
    )
    for link in cluster.network.links():
        link.delay = LognormalJitterDelay(
            link.one_way_ms, math.log(NOISE_EXCESS_MEDIAN_MS), NOISE_SIGMA_LOG
        )
    schedule.install(cluster)
    harness = ClusterHarness(cluster)
    harness.install_randomized_timeout_sampler(interval_ms=SECOND)
    harness.install_rtt_probe(interval_ms=SECOND)
    cluster.start()
    end = config.duration_ms()
    cluster.run_until(end)

    times, matrix = randomized_timeout_matrix(cluster.trace, cluster.names)
    k = N_NODES // 2 + 1  # f+1
    kth = kth_smallest_series(matrix, k)

    probes = cluster.trace.of_kind("rtt_probe")
    probe_by_time = {p.time: p.get("rtt_ms") for p in probes}
    rtt_series = np.array([probe_by_time.get(t, np.nan) for t in times])

    leaders = cluster.trace.of_kind("become_leader")
    t_first_leader = leaders[0].time if leaders else 0.0
    intervals = tuple(
        leaderless_intervals(cluster.trace, t_start=t_first_leader, t_end=end)
    )
    elections = [
        r for r in cluster.trace.of_kind("election_start") if r.time > t_first_leader
    ]
    timeouts = [
        r for r in cluster.trace.of_kind("election_timeout") if r.time > t_first_leader
    ]
    return SystemRttResult(
        system=system,
        pattern=config.pattern,
        times_ms=times,
        kth_randomized_timeout_ms=kth,
        rtt_ms=rtt_series,
        ots_intervals=intervals,
        ots_total_ms=total_interval_length(list(intervals)),
        unnecessary_elections=len(elections),
        false_detections=len(timeouts),
    )


def _summary(runs: Sequence[SystemRttResult]) -> list[str]:
    return [
        line_chart(
            {
                "randTO(f+1)": (r.times_ms / 1000.0, r.kth_randomized_timeout_ms),
                "RTT": (r.times_ms / 1000.0, r.rtt_ms),
            },
            title=f"\n{r.system}, {r.pattern} RTT — randomizedTimeout vs RTT",
            x_label="s",
            y_label="ms",
            height=12,
        )
        for r in runs
    ]


GRID = grid.Grid(
    name="fig6_rtt",
    full=Fig6Config(),
    smoke=Fig6Config(dwell_ms=6_000.0),
    cells=lambda base, systems: [
        dataclasses.replace(base, system=s, pattern=p)
        for p in PATTERNS
        for s in systems
    ],
    run_one=run_one,
    check=lambda runs: [],
    title=lambda c: f"RTT patterns, dwell {c.dwell_ms / 1000:g} s",
    columns=("run", "OTS", "outages", "elections", "false det", "randTO p50"),
    row=lambda r: (
        f"{r.system}/{r.pattern}",
        f"{r.ots_total_ms / 1000.0:.1f} s",
        str(len(r.ots_intervals)),
        str(r.unnecessary_elections),
        str(r.false_detections),
        f"{np.nanmedian(r.kth_randomized_timeout_ms):.0f} ms",
    ),
    held=grid.NO_GATES,
    summary=_summary,
    axes={"pattern": PATTERNS},
    systems=("dynatune", "raft", "raft-low"),
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
