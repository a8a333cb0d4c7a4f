"""Fig. 7: adaptivity to packet-loss fluctuations (§IV-C2).

Protocol: RTT pinned at 200 ms; per-direction loss walks the staircase
0 → 5 → … → 30 → … → 5 → 0 %, one dwell per level; cluster sizes
N ∈ {5, 17, 65}; two systems — Dynatune (full tuning) vs **Fix-K**
(Et-tuning kept, ``K`` pinned to 10 so ``h = Et/10``).  Per §IV-C2 the
containers get two cores, and ``docker stats`` is polled every 5 s.

Reported series (paper Figs. 7a/7b + text):

* the leader's applied heartbeat interval ``h`` over time — Dynatune drops
  ``h`` as loss rises and relaxes it back, Fix-K stays pinned;
* leader and follower CPU utilisation (percent of one core) — Fix-K's
  leader burns CPU proportional to ``N``, exceeding 100 % at N = 65, while
  Dynatune stays well under half of that and *peaks with the loss rate*;
* the number of unnecessary elections — zero for both systems at every N.

Each (system, N) pair is one cell of :data:`GRID` (``python -m
repro.experiments.fig7_loss``), whose gate is that zero.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Sequence

import numpy as np

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.experiments import grid
from repro.experiments.common import make_policy_factory
from repro.scenarios.profiles import loss_staircase_profile
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import SetLoss, Step

__all__ = ["Fig7Config", "LossRunResult", "GRID", "run_one"]

RTT_MS = 200.0
SEED = 42
#: §IV-C2: two cores per container, ``docker stats`` polled every 5 s.
CORES_PER_NODE = 2.0
SAMPLE_INTERVAL_MS = 5_000.0


@dataclasses.dataclass(slots=True, frozen=True)
class Fig7Config:
    """One (system, N) staircase run (the grid's cells derive one per
    system and size in ``sizes``)."""

    system: str = "dynatune"
    n_nodes: int = 5
    #: Cluster sizes (paper: 5, 17, 65).
    sizes: tuple[int, ...] = (5, 17, 65)
    loss_levels: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
    #: Dwell per loss level (paper: 180 s).
    dwell_ms: float = 180_000.0
    warmup_ms: float = 10_000.0

    def schedule(self) -> Scenario:
        return loss_staircase_profile(
            rtt_ms=RTT_MS,
            levels=self.loss_levels,
            dwell_ms=self.dwell_ms,
            start_ms=self.warmup_ms,
        )

    def duration_ms(self) -> float:
        return self.schedule().end_ms + self.dwell_ms


@dataclasses.dataclass(slots=True, frozen=True)
class LossRunResult:
    """One (system, N) staircase run."""

    system: str
    n_nodes: int
    #: Sample times (ms) for the h series.
    h_times_ms: np.ndarray
    #: Leader's mean applied heartbeat interval h across followers (ms).
    h_ms: np.ndarray
    #: Ground-truth loss rate at each h sample.
    loss_rate: np.ndarray
    #: CPU utilisation samples (percent of one core).
    cpu_times_ms: np.ndarray
    leader_cpu: np.ndarray
    follower_cpu: np.ndarray
    #: Term-incrementing elections after the first leader (§IV-C2: zero).
    unnecessary_elections: int
    leader: str

    def h_at_loss(self, loss: float, tol: float = 1e-9) -> np.ndarray:
        """All h samples taken while the staircase sat at ``loss``."""
        mask = np.abs(self.loss_rate - loss) < tol
        return self.h_ms[mask]

    def h_legs(self) -> tuple[float, float, float]:
        """Mean h over the loss-free dwell before the loss first rises, mean
        h at the highest loss, and the last h sample of the run."""
        lossy = np.flatnonzero(self.loss_rate > 0.0)
        rising = self.h_ms[: lossy[0] if lossy.size else None].mean()
        peak = self.h_at_loss(self.loss_rate.max()).mean()
        return float(rising), float(peak), float(self.h_ms[-1])


def run_one(config: Fig7Config) -> LossRunResult:
    system, n_nodes = config.system, config.n_nodes
    schedule = config.schedule()
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=n_nodes,
            seed=SEED,
            rtt_ms=RTT_MS,
            loss=0.0,
            cores_per_node=CORES_PER_NODE,
            with_cost_model=True,
        ),
        make_policy_factory(system),
    )
    current_loss = [0.0]

    def _observe(step: Step) -> None:
        if isinstance(step, SetLoss):
            current_loss[0] = step.loss

    schedule.install(cluster, on_apply=_observe)
    cluster.start()
    leader = cluster.run_until_leader()
    leader_node = cluster.node(leader)

    # h sampler: the leader's mean applied per-follower heartbeat interval.
    h_samples: list[tuple[float, float, float]] = []

    def _h_tick() -> None:
        if leader_node.is_leader:
            intervals = [
                leader_node.policy.heartbeat_interval_ms(p) for p in leader_node.peers
            ]
            h_samples.append(
                (cluster.loop.now, float(np.mean(intervals)), current_loss[0])
            )

    cluster.loop.every(SAMPLE_INTERVAL_MS, _h_tick)

    assert cluster.cost_model is not None
    follower = next(p for p in cluster.names if p != leader)
    cluster.cost_model.start_sampling(
        cluster.loop, [leader, follower], interval_ms=SAMPLE_INTERVAL_MS
    )

    t_first_leader = cluster.loop.now
    cluster.run_until(config.duration_ms())

    elections = [
        r
        for r in cluster.trace.of_kind("election_start")
        if r.time > t_first_leader
    ]
    cpu_t, leader_cpu = cluster.cost_model.utilization_series(leader)
    _, follower_cpu = cluster.cost_model.utilization_series(follower)
    arr = np.asarray(h_samples, dtype=np.float64).reshape(-1, 3)
    return LossRunResult(
        system=system,
        n_nodes=n_nodes,
        h_times_ms=arr[:, 0],
        h_ms=arr[:, 1],
        loss_rate=arr[:, 2],
        cpu_times_ms=np.asarray(cpu_t),
        leader_cpu=np.asarray(leader_cpu),
        follower_cpu=np.asarray(follower_cpu),
        unnecessary_elections=len(elections),
        leader=leader,
    )


def check(runs: Sequence[LossRunResult]) -> list[str]:
    """§IV-C2: no unnecessary election for either system at any N."""
    return [
        f"{r.system} N={r.n_nodes}: {r.unnecessary_elections} unnecessary elections"
        for r in runs
        if r.unnecessary_elections
    ]


GRID = grid.Grid(
    name="fig7_loss",
    full=Fig7Config(),
    # One CPU sample interval per dwell: every loss level gets one sample.
    smoke=Fig7Config(sizes=(5,), dwell_ms=5_000.0, warmup_ms=5_000.0),
    cells=lambda base, systems: [
        dataclasses.replace(base, system=s, n_nodes=n)
        for n in base.sizes
        for s in systems
    ],
    run_one=run_one,
    check=check,
    title=lambda c: (
        f"loss staircase {[f'{p:.0%}' for p in c.loss_levels]} up/down, "
        f"dwell {c.dwell_ms / 1000:g} s, RTT {RTT_MS:.0f} ms"
    ),
    columns=("run", "h rising", "h peak", "h end", "leader CPU", "max", "follower CPU", "elections"),
    row=lambda r: (
        f"{r.system}/N={r.n_nodes}",
        *(f"{h:.0f} ms" for h in r.h_legs()),
        f"{r.leader_cpu.mean():.1f} %",
        f"{r.leader_cpu.max():.1f} %",
        f"{r.follower_cpu.mean():.1f} %",
        str(r.unnecessary_elections),
    ),
    held="§IV-C2: no unnecessary election for either system at any N",
    systems=("dynatune", "fix-k"),
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
