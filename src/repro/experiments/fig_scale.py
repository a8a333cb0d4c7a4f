"""Large-cluster scaling sweep: {Raft, Dynatune} × N ∈ {5, 25, 51, 101}.

The paper evaluates at 5–65 servers but the interesting claims — per-path
heartbeat tuning staying cheap while stock Raft's leader work grows with
N, detection latency staying flat as the quorum widens — only become
visible at sizes the seed simulator could not afford.  With the
protocol-layer fast path (one ``Progress`` record per follower,
allocation-light heartbeats) a 101-node cluster runs at interactive speed, so cluster size
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

Determinism: each (system, N) pair is one cell of :data:`GRID`, seeded
by its index in the whole sweep (so a ``--system`` run reproduces its
cells); every simulated quantity depends only on
``(seed, system, N)``, and the wall-clock numbers are reported but left
out of the digest.  The gate: every kill resolves.

Run with ``python -m repro.experiments.fig_scale`` (10 kills per cell up
to 101 nodes; ``--smoke``: one kill at N = 3 and 9).
"""

from __future__ import annotations

import dataclasses
import sys
import time
from typing import Sequence

import numpy as np

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.harness import ClusterHarness
from repro.cluster.measurements import extract_failure_episodes
from repro.experiments import grid
from repro.experiments.common import make_policy_factory
from repro.experiments.runner import derive_trial_seed

__all__ = ["ScaleSweepConfig", "ScaleCellResult", "GRID", "run_one"]

RTT_MS = 100.0


@dataclasses.dataclass(slots=True, frozen=True)
class ScaleSweepConfig:
    """One (system, N) cell of a scaling sweep over ``sizes`` (the grid's
    cells derive one per system and size, each with its own seed)."""

    system: str = "raft"
    n_nodes: int = 5
    sizes: tuple[int, ...] = (5, 25, 51, 101)
    #: Leader kills per (system, N) cell.
    n_failures: int = 10
    warmup_ms: float = 8_000.0
    sleep_ms: float = 6_000.0
    settle_ms: float = 8_000.0
    seed: int = 33

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("sweep needs at least one size")
        if self.n_failures < 1:
            raise ValueError(f"n_failures must be >= 1, got {self.n_failures!r}")
        if any(n < 3 for n in self.sizes):
            raise ValueError(f"cluster sizes must be >= 3, got {self.sizes!r}")


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


def run_one(config: ScaleSweepConfig) -> ScaleCellResult:
    system, n_nodes = config.system, config.n_nodes
    t0 = time.perf_counter()
    cluster = build_cluster(
        ClusterConfig(n_nodes=n_nodes, seed=config.seed, rtt_ms=RTT_MS),
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


def _cells(base: ScaleSweepConfig, systems: tuple[str, ...]) -> list[ScaleSweepConfig]:
    # Index over every system of the grid, then filter: a --system run
    # reproduces its cells of the whole sweep.
    unknown = set(systems) - set(GRID.systems)
    if unknown:
        raise ValueError(f"the sweep compares {GRID.systems}, not {sorted(unknown)}")
    pairs = [(system, n) for n in base.sizes for system in GRID.systems]
    return [
        dataclasses.replace(
            base, system=system, n_nodes=n, seed=derive_trial_seed(base.seed, i)
        )
        for i, (system, n) in enumerate(pairs)
        if system in systems
    ]


def check(runs: Sequence[ScaleCellResult]) -> list[str]:
    """The CI scaling canary fails on broken detection or re-election, not
    only on wall-clock timeout."""
    return [
        f"{r.system} at N={r.n_nodes} resolved only {r.resolved}/{r.n_failures} "
        f"leader kills"
        for r in runs
        if r.resolved != r.n_failures
    ]


GRID = grid.Grid(
    name="fig_scale",
    full=ScaleSweepConfig(),
    smoke=ScaleSweepConfig(sizes=(3, 9), n_failures=1),
    cells=_cells,
    run_one=run_one,
    check=check,
    title=lambda c: (
        f"{c.n_failures} leader kills per cell, RTT {RTT_MS:.0f} ms, "
        f"sizes {list(c.sizes)}"
    ),
    columns=("N", "system", "detect", "OTS", "resolved", "hb/sim-s", "msg/sim-s", "sim-s/wall-s"),
    row=lambda r: (
        str(r.n_nodes),
        r.system,
        f"{r.detection_ms:.0f}ms",
        f"{r.ots_ms:.0f}ms",
        f"{r.resolved}/{r.n_failures}",
        f"{r.heartbeats_per_sim_s:.0f}",
        f"{r.messages_per_sim_s:.0f}",
        f"{r.sim_seconds_per_wall_second:.1f}",
    ),
    held="every leader kill resolved at every size",
    digest_exclude=("wall_s",),
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
