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

import numpy as np

from repro.cluster.workload import (
    FluidWorkloadConfig,
    LoadLevelResult,
    peak_throughput,
    run_rps_staircase,
)
from repro.experiments.common import get_scale
from repro.experiments.runner import run_tasks
from repro.sim.rng import RngRegistry

__all__ = ["Fig5Config", "SystemThroughputResult", "Fig5Result", "run", "main"]

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
    repeats: int = 3
    dwell_s: float = 10.0
    max_rps: float = 15_000.0

    @classmethod
    def quick(cls) -> "Fig5Config":
        return cls(repeats=get_scale().fig5_repeats)

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


@dataclasses.dataclass(slots=True, frozen=True)
class Fig5Result:
    config: Fig5Config
    systems: dict[str, SystemThroughputResult]

    @property
    def peak_gap(self) -> float:
        """Relative peak-throughput deficit of Dynatune vs Raft."""
        raft = self.systems["raft"].peak_rps
        dyn = self.systems["dynatune"].peak_rps
        return 1.0 - dyn / raft


def _run_repeat_task(
    task: tuple[str, FluidWorkloadConfig, Fig5Config, int]
) -> tuple[LoadLevelResult, ...]:
    """Module-level worker: one full staircase repeat.

    A repeat is the parallel unit (not a single load level): the fluid
    backlog deliberately persists across levels — the paper's clients
    never stop — so the levels of one staircase are a sequential chain.
    The RNG stream is derived by name from ``(seed, system, rep)`` exactly
    as the sequential implementation derived it, so the fan-out reproduces
    the sequential numbers bit for bit.
    """
    system, workload, config, rep = task
    rng = RngRegistry(SEED).stream(f"fig5/{system}/{rep}")
    return tuple(
        run_rps_staircase(
            workload, levels=config.levels(), dwell_s=config.dwell_s, rng=rng
        )
    )


def _collect_system(
    system: str, levels: list[float], runs: list[tuple[LoadLevelResult, ...]]
) -> SystemThroughputResult:
    tp = np.array([[r.throughput_rps for r in rr] for rr in runs])
    lat = np.array([[r.mean_latency_ms for r in rr] for rr in runs])
    return SystemThroughputResult(
        system=system,
        offered_rps=np.asarray(levels),
        throughput_rps=tp.mean(axis=0),
        throughput_std=tp.std(axis=0),
        mean_latency_ms=lat.mean(axis=0),
        peak_rps=float(np.mean([peak_throughput(list(rr)) for rr in runs])),
        runs=tuple(runs),
    )


def run_system(
    system: str,
    workload: FluidWorkloadConfig,
    config: Fig5Config,
    *,
    jobs: int | None = None,
) -> SystemThroughputResult:
    runs = run_tasks(
        _run_repeat_task,
        [(system, workload, config, rep) for rep in range(config.repeats)],
        jobs=jobs,
    )
    return _collect_system(system, config.levels(), runs)


def run(config: Fig5Config | None = None, *, jobs: int | None = None) -> Fig5Result:
    """Run both systems' staircases (every (system, repeat) pair fans out
    across ``REPRO_JOBS``/``jobs``; results are identical for any job
    count — and to the former sequential implementation)."""
    cfg = config if config is not None else Fig5Config.quick()
    systems = [("raft", RAFT_WORKLOAD), ("dynatune", DYNATUNE_WORKLOAD)]
    tasks = [
        (system, workload, cfg, rep)
        for system, workload in systems
        for rep in range(cfg.repeats)
    ]
    results = run_tasks(_run_repeat_task, tasks, jobs=jobs)
    return Fig5Result(
        config=cfg,
        systems={
            system: _collect_system(
                system,
                cfg.levels(),
                results[idx * cfg.repeats : (idx + 1) * cfg.repeats],
            )
            for idx, (system, _) in enumerate(systems)
        },
    )


def main() -> Fig5Result:  # pragma: no cover - exercised via __main__
    result = run(Fig5Config.quick())
    print(f"# Fig. 5 — throughput/latency staircase, {result.config.repeats} repeats")
    for name, sysres in result.systems.items():
        print(f"\n{name}: peak {sysres.peak_rps:.0f} req/s (paper {PAPER_NUMBERS[name]:.0f})")
        print(f"  {'offered':>9} {'throughput':>11} {'latency':>9}")
        for off, tp, lat in zip(
            sysres.offered_rps, sysres.throughput_rps, sysres.mean_latency_ms
        ):
            print(f"  {off:>9.0f} {tp:>11.0f} {lat:>7.0f}ms")
    print(
        f"\npeak gap Dynatune vs Raft: {100 * result.peak_gap:.1f} % "
        f"(paper {100 * PAPER_NUMBERS['gap']:.1f} %)"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
