"""Large-cluster scaling sweep: {Raft, Dynatune} × N ∈ {5, 25, 51, 101}.

The paper evaluates at 5–65 servers but the interesting claims — per-path
heartbeat tuning staying cheap while stock Raft's leader work grows with
N, detection latency staying flat as the quorum widens — only become
visible at sizes the seed simulator could not afford.  With the
protocol-layer fast path (incremental commit tracking, allocation-light
heartbeats) a 101-node cluster runs at interactive speed, so cluster size
becomes an ordinary experiment axis.

Per (system, N) cell this sweep runs the §IV-B1 leader-kill protocol and
reports:

* **detection / OTS latency** (mean over kills) — should stay flat-ish in
  N for both systems (quorum election is one round trip), with Dynatune's
  tuned timeouts far below the Raft default at every size;
* **message load** — heartbeats sent per simulated second, which grows
  linearly in N for the leader (the §IV-C2 CPU story);
* **wall-clock throughput** — simulated-cluster-seconds per wall second,
  the simulator-side scaling figure the CI smoke budget tracks.

Determinism: every simulated quantity depends only on ``(seed, system,
N)``; wall-clock numbers are reported but obviously machine-dependent.
Cells are independent simulations fanned out via
:func:`repro.experiments.runner.run_tasks` (``REPRO_JOBS``).

Run with ``python -m repro.experiments.fig_scale``; ``REPRO_SCALE=paper``
adds the 101-node column and more kills per cell.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.harness import ClusterHarness
from repro.cluster.measurements import extract_failure_episodes
from repro.experiments.common import get_scale, make_policy_factory
from repro.experiments.runner import derive_trial_seed, run_tasks

__all__ = ["ScaleSweepConfig", "ScaleCellResult", "ScaleSweepResult", "run", "main"]

RTT_MS = 100.0


@dataclasses.dataclass(slots=True, frozen=True)
class ScaleSweepConfig:
    """Shape of one scaling sweep."""

    systems: tuple[str, ...] = ("raft", "dynatune")
    sizes: tuple[int, ...] = (5, 25, 51)
    n_failures: int = 3
    warmup_ms: float = 8_000.0
    sleep_ms: float = 6_000.0
    settle_ms: float = 8_000.0
    seed: int = 33

    def __post_init__(self) -> None:
        if not self.systems or not self.sizes:
            raise ValueError("sweep needs at least one system and one size")
        if self.n_failures < 1:
            raise ValueError(f"n_failures must be >= 1, got {self.n_failures!r}")
        if any(n < 3 for n in self.sizes):
            raise ValueError(f"cluster sizes must be >= 3, got {self.sizes!r}")

    @classmethod
    def quick(cls) -> "ScaleSweepConfig":
        scale = get_scale()
        return cls(sizes=scale.scale_sizes, n_failures=scale.scale_failures)

    @classmethod
    def paper_scale(cls) -> "ScaleSweepConfig":
        return cls(sizes=(5, 25, 51, 101), n_failures=10)


@dataclasses.dataclass(slots=True, frozen=True)
class ScaleCellResult:
    """One (system, N) leader-kill run, reduced to scaling figures."""

    system: str
    n_nodes: int
    n_failures: int
    #: Mean first-detection latency over resolved kills (ms).
    detection_ms: float
    #: Mean out-of-service time over resolved kills (ms).
    ots_ms: float
    #: Kills that resolved (detected + re-elected) — should equal n_failures.
    resolved: int
    #: Total virtual time simulated (ms).
    simulated_ms: float
    #: Heartbeats sent cluster-wide per simulated second.
    heartbeats_per_sim_s: float
    #: Messages offered to the fabric per simulated second.
    messages_per_sim_s: float
    #: Commit-index advances observed on leaders (replication liveness).
    commit_advances: int
    #: Wall seconds for the whole cell (machine-dependent; not asserted).
    wall_s: float

    @property
    def sim_seconds_per_wall_second(self) -> float:
        """Simulator throughput for this cell."""
        if self.wall_s <= 0.0:
            return float("inf")
        return (self.simulated_ms / 1_000.0) / self.wall_s


@dataclasses.dataclass(slots=True, frozen=True)
class ScaleSweepResult:
    config: ScaleSweepConfig
    cells: dict[tuple[str, int], ScaleCellResult]

    def cell(self, system: str, n: int) -> ScaleCellResult:
        return self.cells[(system, n)]


def run_one(system: str, n_nodes: int, cell_seed: int, config: ScaleSweepConfig) -> ScaleCellResult:
    t0 = time.perf_counter()
    cluster = build_cluster(
        ClusterConfig(n_nodes=n_nodes, seed=cell_seed, rtt_ms=RTT_MS),
        make_policy_factory(system),
    )
    cluster.start()
    harness = ClusterHarness(cluster)
    harness.run_leader_failure_loop(
        config.n_failures,
        warmup_ms=config.warmup_ms,
        sleep_ms=config.sleep_ms,
        settle_ms=config.settle_ms,
    )
    wall_s = time.perf_counter() - t0

    episodes = extract_failure_episodes(cluster.trace, cluster_size=n_nodes)
    detections = [e.detection_latency_ms for e in episodes if e.detection_latency_ms is not None]
    ots = [e.ots_ms for e in episodes if e.ots_ms is not None]
    simulated_ms = cluster.loop.now
    heartbeats = sum(n.metrics.heartbeats_sent for n in cluster.nodes.values())
    total = cluster.network.total_stats()
    return ScaleCellResult(
        system=system,
        n_nodes=n_nodes,
        n_failures=config.n_failures,
        detection_ms=float(np.mean(detections)) if detections else float("nan"),
        ots_ms=float(np.mean(ots)) if ots else float("nan"),
        resolved=sum(1 for e in episodes if e.resolved),
        simulated_ms=simulated_ms,
        heartbeats_per_sim_s=heartbeats / (simulated_ms / 1_000.0),
        messages_per_sim_s=total.sent / (simulated_ms / 1_000.0),
        commit_advances=sum(n.metrics.commit_advances for n in cluster.nodes.values()),
        wall_s=wall_s,
    )


def _run_cell(task: tuple[str, int, int, ScaleSweepConfig]) -> ScaleCellResult:
    """Module-level worker (picklable) for :func:`run_tasks`."""
    system, n_nodes, cell_seed, cfg = task
    return run_one(system, n_nodes, cell_seed, cfg)


def run(config: ScaleSweepConfig | None = None, *, jobs: int | None = None) -> ScaleSweepResult:
    """Run the (system × size) grid, parallel across ``REPRO_JOBS``."""
    cfg = config if config is not None else ScaleSweepConfig.quick()
    grid = [(system, n) for n in cfg.sizes for system in cfg.systems]
    tasks = [
        (system, n, derive_trial_seed(cfg.seed, i), cfg)
        for i, (system, n) in enumerate(grid)
    ]
    results = run_tasks(_run_cell, tasks, jobs=jobs)
    return ScaleSweepResult(config=cfg, cells=dict(zip(grid, results)))


def main() -> int:  # pragma: no cover - exercised via __main__
    result = run()
    cfg = result.config
    print(
        f"# Scaling sweep — {cfg.n_failures} leader kills per cell, "
        f"RTT {RTT_MS:.0f} ms, sizes {list(cfg.sizes)}"
    )
    print(
        f"{'N':>4} {'system':<9} {'detect':>9} {'OTS':>9} {'resolved':>9} "
        f"{'hb/sim-s':>9} {'msg/sim-s':>10} {'sim-s/wall-s':>13}"
    )
    unresolved = []
    for n in cfg.sizes:
        for system in cfg.systems:
            cell = result.cell(system, n)
            print(
                f"{n:>4} {system:<9} {cell.detection_ms:>7.0f}ms {cell.ots_ms:>7.0f}ms "
                f"{cell.resolved:>6}/{cell.n_failures:<2} {cell.heartbeats_per_sim_s:>9.0f} "
                f"{cell.messages_per_sim_s:>10.0f} {cell.sim_seconds_per_wall_second:>13.1f}"
            )
            if cell.resolved != cell.n_failures:
                unresolved.append((system, n, cell.resolved))
    if unresolved:
        # The CI scaling canary must fail on broken detection/re-election,
        # not only on wall-clock timeout.
        for system, n, resolved in unresolved:
            print(
                f"UNRESOLVED: {system} at N={n} resolved only "
                f"{resolved}/{cfg.n_failures} leader kills",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
