"""Fig. 5 + §IV-B2: peak throughput without failures.

Protocol (paper §IV-B2): same stable 5-server cluster, no failures; open-
loop clients raise the offered rate by 1000 req/s every 10 s; average
latency and throughput are recorded per level; the run is repeated 10
times.  Paper result: Raft peaks at 13 678 req/s, Dynatune at 12 800 req/s
(−6.4 %), with average latency climbing from ≈ 200 ms to ≈ 700 ms.

The request path runs on the fluid leader-queue model (see
:mod:`repro.cluster.workload`): the knee position comes
from the CPU capacity model, the Dynatune gap from the calibrated tuning-
overhead factor (§IV-E attributes the gap to tuning-process overhead but
does not decompose it further, so it is a measured parameter here, not a
prediction).
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Sequence

import numpy as np

from repro.cluster.workload import (
    FluidWorkloadConfig,
    LoadLevelResult,
    peak_throughput,
    run_rps_staircase,
)
from repro.experiments import grid
from repro.sim.rng import RngRegistry

__all__ = ["Fig5Config", "SystemThroughputResult", "GRID", "run_one", "peak_gap"]

PAPER_NUMBERS = {"raft": 13678.0, "dynatune": 12800.0, "gap": 0.064}

#: Calibrated Dynatune service-cost overhead (reproduces the §IV-B2 gap).
DYNATUNE_OVERHEAD_FACTOR = 1.068
RAFT_WORKLOAD = FluidWorkloadConfig()
DYNATUNE_WORKLOAD = dataclasses.replace(
    RAFT_WORKLOAD, overhead_factor=DYNATUNE_OVERHEAD_FACTOR
)
SEED = 42
#: §IV-B2: the offered rate rises by 1000 req/s per dwell.
STEP_RPS = 1_000.0


@dataclasses.dataclass(slots=True, frozen=True)
class Fig5Config:
    """One system's repeated staircase (the grid's cells derive one per
    system)."""

    system: str = "raft"
    #: Staircase repeats (paper: 10).
    repeats: int = 10
    dwell_s: float = 10.0
    max_rps: float = 15_000.0

    def levels(self) -> list[float]:
        return [STEP_RPS * k for k in range(1, int(self.max_rps / STEP_RPS) + 1)]


@dataclasses.dataclass(slots=True, frozen=True)
class SystemThroughputResult:
    """Per-system throughput/latency curve averaged over repeats."""

    system: str
    offered_rps: np.ndarray
    throughput_rps: np.ndarray  # mean over repeats, per level
    throughput_std: np.ndarray
    mean_latency_ms: np.ndarray
    peak_rps: float
    runs: tuple[tuple[LoadLevelResult, ...], ...]


def run_one(config: Fig5Config) -> SystemThroughputResult:
    """Run one system's staircase ``repeats`` times.

    A repeat is a sequential chain: the fluid backlog deliberately
    persists across levels — the paper's clients never stop.  Repeat
    ``rep`` draws from the stream named ``fig5/<system>/<rep>``.
    """
    workload = {"raft": RAFT_WORKLOAD, "dynatune": DYNATUNE_WORKLOAD}.get(config.system)
    if workload is None:
        raise ValueError(f"Fig. 5 models raft and dynatune, not {config.system!r}")
    rngs = RngRegistry(SEED)
    runs = [
        tuple(
            run_rps_staircase(
                workload,
                levels=config.levels(),
                dwell_s=config.dwell_s,
                rng=rngs.stream(f"fig5/{config.system}/{rep}"),
            )
        )
        for rep in range(config.repeats)
    ]
    tp = np.array([[r.throughput_rps for r in rr] for rr in runs])
    lat = np.array([[r.mean_latency_ms for r in rr] for rr in runs])
    return SystemThroughputResult(
        system=config.system,
        offered_rps=np.asarray(config.levels()),
        throughput_rps=tp.mean(axis=0),
        throughput_std=tp.std(axis=0),
        mean_latency_ms=lat.mean(axis=0),
        peak_rps=float(np.mean([peak_throughput(list(rr)) for rr in runs])),
        runs=tuple(runs),
    )


def peak_gap(runs: Sequence[SystemThroughputResult]) -> float:
    """Relative peak-throughput deficit of Dynatune vs Raft."""
    raft = grid.find(runs, system="raft").peak_rps
    return 1.0 - grid.find(runs, system="dynatune").peak_rps / raft


GRID = grid.Grid(
    name="fig5_throughput",
    full=Fig5Config(),
    smoke=Fig5Config(repeats=1),
    cells=lambda base, systems: [dataclasses.replace(base, system=s) for s in systems],
    run_one=run_one,
    check=lambda runs: [],
    title=lambda c: (
        f"{c.repeats} repeats of +{STEP_RPS:.0f} req/s every {c.dwell_s:g} s "
        f"up to {c.max_rps:.0f} req/s"
    ),
    columns=("system", "peak", "latency@first", "latency@last"),
    row=lambda r: (
        r.system,
        f"{r.peak_rps:.0f} req/s",
        f"{r.mean_latency_ms[0]:.0f} ms",
        f"{r.mean_latency_ms[-1]:.0f} ms",
    ),
    held=grid.NO_GATES,
    summary=lambda runs: (
        [f"peak gap Dynatune vs Raft: {100 * peak_gap(runs):.1f} %"]
        if {"raft", "dynatune"} <= {r.system for r in runs}
        else []
    ),
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
