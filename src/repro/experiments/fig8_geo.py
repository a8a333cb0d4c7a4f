"""Fig. 8 + §IV-D: the real geo-distributed (AWS) experiment.

Protocol: five ``m5.large``-class servers in Tokyo, London, California,
Sydney and São Paulo; the §IV-B1 leader-kill loop repeated on that
topology.  Clocks are NTP-synchronised, so the paper flags its measured
times as carrying tens of milliseconds of error.

Paper means: detection 1137 → 213 ms (−81 %), OTS 1718 → 1145 ms (−33 %).

Reproduction: the AWS RTT matrix of :mod:`repro.net.topology` with
proportional WAN jitter, and a :class:`~repro.net.topology.ClockModel`
applying per-node NTP offsets (σ = 15 ms) *to the measurement extraction
only* — the simulator still runs on exact time, exactly as physics does.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.cdf import empirical_cdf
from repro.analysis.stats import SummaryStats, summarize
from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.harness import ClusterHarness
from repro.cluster.measurements import FailureEpisode, extract_failure_episodes
from repro.experiments.common import get_scale, make_policy_factory
from repro.experiments.runner import run_tasks
from repro.net.topology import ClockModel

__all__ = [
    "Fig8Config",
    "GeoElectionResult",
    "Fig8Result",
    "run",
    "main",
]

PAPER_NUMBERS = {
    "raft": {"detection": 1137.0, "ots": 1718.0},
    "dynatune": {"detection": 213.0, "ots": 1145.0},
}


@dataclasses.dataclass(slots=True, frozen=True)
class Fig8Config:
    n_failures: int = 60
    n_nodes: int = 5
    seed: int = 42
    systems: tuple[str, ...] = ("raft", "dynatune")
    ntp_offset_sigma_ms: float = 15.0
    warmup_ms: float = 10_000.0
    sleep_ms: float = 8_000.0
    settle_ms: float = 10_000.0

    @classmethod
    def quick(cls) -> "Fig8Config":
        return cls(n_failures=get_scale().fig4_failures)


@dataclasses.dataclass(slots=True, frozen=True)
class GeoElectionResult:
    system: str
    episodes: tuple[FailureEpisode, ...]
    detection_ms: np.ndarray
    ots_ms: np.ndarray
    detection_summary: SummaryStats
    ots_summary: SummaryStats
    detection_cdf: tuple[np.ndarray, np.ndarray]
    ots_cdf: tuple[np.ndarray, np.ndarray]
    placement: dict[str, str]

    @property
    def mean_detection_ms(self) -> float:
        return self.detection_summary.mean

    @property
    def mean_ots_ms(self) -> float:
        return self.ots_summary.mean


@dataclasses.dataclass(slots=True, frozen=True)
class Fig8Result:
    config: Fig8Config
    systems: dict[str, GeoElectionResult]

    def reduction(self, metric: str) -> float:
        base = getattr(self.systems["raft"], f"mean_{metric}_ms")
        new = getattr(self.systems["dynatune"], f"mean_{metric}_ms")
        return 1.0 - new / base


def run_system(system: str, config: Fig8Config) -> GeoElectionResult:
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=config.n_nodes,
            seed=config.seed,
            topology="aws",
        ),
        make_policy_factory(system),
    )
    clock = ClockModel.ntp(
        cluster.names, cluster.rngs, offset_sigma_ms=config.ntp_offset_sigma_ms
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
        for e in extract_failure_episodes(
            cluster.trace, clock=clock, cluster_size=config.n_nodes
        )
        if e.resolved
    )
    if not episodes:
        raise RuntimeError(f"fig8[{system}]: no resolved failure episodes")
    detection = np.array([e.detection_latency_ms for e in episodes])
    ots = np.array([e.ots_ms for e in episodes])
    return GeoElectionResult(
        system=system,
        episodes=episodes,
        detection_ms=detection,
        ots_ms=ots,
        detection_summary=summarize(detection),
        ots_summary=summarize(ots),
        detection_cdf=empirical_cdf(detection),
        ots_cdf=empirical_cdf(ots),
        placement=dict(cluster.placement or {}),
    )


def _run_system_task(args: tuple[str, Fig8Config]) -> GeoElectionResult:
    """Module-level worker for :func:`repro.experiments.runner.run_tasks`."""
    system, cfg = args
    return run_system(system, cfg)


def run(config: Fig8Config | None = None, *, jobs: int | None = None) -> Fig8Result:
    """Run every system (in parallel across systems when ``jobs`` /
    ``REPRO_JOBS`` allows); results are identical for any job count."""
    cfg = config if config is not None else Fig8Config.quick()
    results = run_tasks(_run_system_task, [(s, cfg) for s in cfg.systems], jobs=jobs)
    return Fig8Result(config=cfg, systems=dict(zip(cfg.systems, results)))


def main() -> Fig8Result:  # pragma: no cover - exercised via __main__
    result = run(Fig8Config.quick())
    print(
        f"# Fig. 8 — geo-replicated (AWS) election performance, "
        f"{result.config.n_failures} failures, NTP σ={result.config.ntp_offset_sigma_ms} ms"
    )
    any_sys = next(iter(result.systems.values()))
    print("placement:", ", ".join(f"{n}={r}" for n, r in any_sys.placement.items()))
    for name, sysres in result.systems.items():
        paper = PAPER_NUMBERS[name]
        print(
            f"{name:<10} detection {sysres.mean_detection_ms:>6.0f} ms "
            f"(paper {paper['detection']:.0f})   OTS {sysres.mean_ots_ms:>6.0f} ms "
            f"(paper {paper['ots']:.0f})"
        )
    print(
        f"reduction vs Raft: detection {100 * result.reduction('detection'):.0f} % "
        f"(paper 81 %), OTS {100 * result.reduction('ots'):.0f} % (paper 33 %)"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
