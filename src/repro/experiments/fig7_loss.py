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
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.experiments.common import get_scale, make_policy_factory
from repro.experiments.runner import run_tasks
from repro.scenarios.profiles import loss_staircase_profile
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import SetLoss, Step
from repro.sim.events import PRIORITY_CONTROL

__all__ = ["Fig7Config", "LossRunResult", "Fig7Result", "run", "main"]

SYSTEMS = ("dynatune", "fix-k")
RTT_MS = 200.0
SEED = 42
#: §IV-C2: two cores per container, ``docker stats`` polled every 5 s.
CORES_PER_NODE = 2.0
SAMPLE_INTERVAL_MS = 5_000.0


@dataclasses.dataclass(slots=True, frozen=True)
class Fig7Config:
    sizes: tuple[int, ...] = (5, 17)
    loss_levels: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
    dwell_ms: float = 20_000.0
    warmup_ms: float = 10_000.0

    @classmethod
    def quick(cls) -> "Fig7Config":
        scale = get_scale()
        return cls(sizes=scale.fig7_sizes, dwell_ms=scale.fig7_dwell_ms)

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


@dataclasses.dataclass(slots=True, frozen=True)
class Fig7Result:
    config: Fig7Config
    runs: dict[tuple[str, int], LossRunResult]


def run_one(system: str, n_nodes: int, config: Fig7Config) -> LossRunResult:
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
        cluster.loop.schedule(
            SAMPLE_INTERVAL_MS, _h_tick, priority=PRIORITY_CONTROL
        )

    cluster.loop.schedule(SAMPLE_INTERVAL_MS, _h_tick, priority=PRIORITY_CONTROL)

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


def _run_one_task(args: tuple[str, int, Fig7Config]) -> LossRunResult:
    """Module-level worker for :func:`repro.experiments.runner.run_tasks`."""
    system, n_nodes, cfg = args
    return run_one(system, n_nodes, cfg)


def run(config: Fig7Config | None = None, *, jobs: int | None = None) -> Fig7Result:
    """Run the (system × cluster size) grid, in parallel across grid cells
    when ``jobs``/``REPRO_JOBS`` allows; each cell is an independent
    simulation, so results are identical for any job count."""
    cfg = config if config is not None else Fig7Config.quick()
    grid = [(system, n) for n in cfg.sizes for system in SYSTEMS]
    results = run_tasks(
        _run_one_task, [(system, n, cfg) for system, n in grid], jobs=jobs
    )
    return Fig7Result(config=cfg, runs=dict(zip(grid, results)))


def main() -> Fig7Result:  # pragma: no cover - exercised via __main__
    result = run(Fig7Config.quick())
    cfg = result.config
    print(
        f"# Fig. 7 — loss staircase {[f'{p:.0%}' for p in cfg.loss_levels]} "
        f"up/down, dwell {cfg.dwell_ms/1000:.0f} s, RTT {RTT_MS:.0f} ms"
    )
    for (system, n), rr in sorted(result.runs.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        h0 = rr.h_at_loss(0.0)
        hpk = rr.h_at_loss(max(cfg.loss_levels))
        print(
            f"\nN={n:<3} {system:<9} h@0%={np.mean(h0):6.0f} ms  "
            f"h@{max(cfg.loss_levels):.0%}={np.mean(hpk) if hpk.size else float('nan'):6.0f} ms  "
            f"leaderCPU mean={rr.leader_cpu.mean():5.1f}% max={rr.leader_cpu.max():5.1f}%  "
            f"followerCPU mean={rr.follower_cpu.mean():4.1f}%  "
            f"elections={rr.unnecessary_elections}"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
