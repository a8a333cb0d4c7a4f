"""Scenario matrix: {Raft-Low, Raft, Dynatune} × the scenario library.

``python -m repro.experiments.scenario_matrix --quick`` drives every
canonical scenario (:mod:`repro.scenarios.library`) against the three
election-parameter policies, in parallel across ``REPRO_JOBS`` processes,
and reports per cell:

* **unavailability** — total/fraction/longest leaderless time after the
  first election (the OTS figure of merit);
* **thrash** — term-incrementing elections and election-timer expirations
  after the first leader (false elections / false detections);
* **safety** — the partition safety properties (one leader per term,
  monotone commit, no committed-entry loss) checked over the whole run.

Determinism contract: each cell is an independent simulation keyed by a
seed derived from ``(config.seed, cell index)``; the decomposition depends
only on the config, so the report is byte-identical for every
``REPRO_JOBS`` value.  The process exits non-zero if any cell violates a
safety property — scenario breakage fails the build.
"""

from __future__ import annotations

import dataclasses
import sys

from repro.analysis.availability import AvailabilityStats, availability_stats
from repro.cluster.builder import ClusterConfig
from repro.cluster.measurements import leaderless_intervals
from repro.experiments.grid import digest
from repro.experiments.report import ReportRow, render_markdown
from repro.experiments.runner import derive_trial_seed, run_tasks
from repro.fuzz.oracle import CheckedRun
from repro.scenarios.library import build_scenario, scenario_names

__all__ = [
    "ScenarioMatrixConfig",
    "ScenarioCellResult",
    "ScenarioMatrixResult",
    "run",
    "render_rows",
    "main",
]

#: The three systems the matrix compares (Fix-K adds nothing here: the
#: partition scenarios stress Et, not the h/K trade).
MATRIX_SYSTEMS: tuple[str, ...] = ("raft-low", "raft", "dynatune")


@dataclasses.dataclass(slots=True, frozen=True)
class ScenarioMatrixConfig:
    """Shape of one matrix sweep."""

    systems: tuple[str, ...] = MATRIX_SYSTEMS
    scenarios: tuple[str, ...] = dataclasses.field(default_factory=scenario_names)
    n_nodes: int = 5
    seed: int = 21
    #: Run time past the scenario's last effect (heal + converge window).
    settle_ms: float = 10_000.0

    def __post_init__(self) -> None:
        if not self.systems or not self.scenarios:
            raise ValueError("matrix needs at least one system and one scenario")
        if self.settle_ms < 0.0:
            raise ValueError(f"settle_ms must be >= 0, got {self.settle_ms!r}")

    @classmethod
    def large_cluster_smoke(cls, n_nodes: int = 25) -> "ScenarioMatrixConfig":
        """Bounded large-cluster subset for CI: a partition-heavy slice of
        the library at ``n_nodes`` with the event-hooked SafetyChecker on.

        The subset keeps the scenarios whose dynamics actually change with
        cluster size (splits and leader churn) and drops the per-pair
        impairment ones whose step count is O(N) and whose behaviour is
        size-independent — the goal is a wall-clock-budgeted scaling
        canary, not full coverage (the 5-node matrix remains the coverage
        gate).
        """
        return cls(
            n_nodes=n_nodes,
            scenarios=(
                "symmetric_split",
                "minority_partition",
                "majority_partition",
                "leader_churn_loop",
            ),
        )


@dataclasses.dataclass(slots=True, frozen=True)
class ScenarioCellResult:
    """One (system, scenario) run, reduced to its figures of merit."""

    system: str
    scenario: str
    duration_ms: float
    first_leader_ms: float | None
    availability: AvailabilityStats
    unnecessary_elections: int
    false_detections: int
    steps_applied: int
    steps_skipped: int
    safety_violations: tuple[str, ...]

    @property
    def safe(self) -> bool:
        return not self.safety_violations


@dataclasses.dataclass(slots=True, frozen=True)
class ScenarioMatrixResult:
    config: ScenarioMatrixConfig
    cells: dict[tuple[str, str], ScenarioCellResult]

    def cell(self, system: str, scenario: str) -> ScenarioCellResult:
        return self.cells[(system, scenario)]

    @property
    def all_safe(self) -> bool:
        return all(c.safe for c in self.cells.values())


def _run_cell(task: tuple[str, str, int, ScenarioMatrixConfig]) -> ScenarioCellResult:
    """Worker: one (system, scenario) simulation (module-level, picklable)."""
    system, scenario_name, cell_seed, config = task
    run = CheckedRun(
        ClusterConfig(n_nodes=config.n_nodes, seed=cell_seed), system
    )
    cluster = run.cluster
    scenario = build_scenario(scenario_name, cluster.names)
    scenario.install(cluster)
    cluster.start()
    end = scenario.end_ms + config.settle_ms
    cluster.run_until(end)

    leaders = cluster.trace.of_kind("become_leader")
    t_first = leaders[0].time if leaders else None
    window_start = t_first if t_first is not None else 0.0
    intervals = leaderless_intervals(cluster.trace, t_start=window_start, t_end=end)
    steps = cluster.trace.of_kind("scenario_step")
    skipped = sum(1 for r in steps if r.get("skipped"))
    return ScenarioCellResult(
        system=system,
        scenario=scenario_name,
        duration_ms=end,
        first_leader_ms=t_first,
        availability=availability_stats(
            intervals, t_start=window_start, t_end=end
        ),
        unnecessary_elections=sum(
            1
            for r in cluster.trace.of_kind("election_start")
            if t_first is not None and r.time > t_first
        ),
        false_detections=sum(
            1
            for r in cluster.trace.of_kind("election_timeout")
            if t_first is not None and r.time > t_first
        ),
        steps_applied=len(steps) - skipped,
        steps_skipped=skipped,
        safety_violations=tuple(run.checker.verify()),
    )


def run(config: ScenarioMatrixConfig | None = None) -> ScenarioMatrixResult:
    """Run the full matrix (parallel across ``REPRO_JOBS``, bit-stable)."""
    cfg = config if config is not None else ScenarioMatrixConfig()
    tasks = [
        (system, scenario, derive_trial_seed(cfg.seed, i), cfg)
        for i, (system, scenario) in enumerate(
            (s, sc) for s in cfg.systems for sc in cfg.scenarios
        )
    ]
    results = run_tasks(_run_cell, tasks)
    return ScenarioMatrixResult(
        config=cfg,
        cells={(r.system, r.scenario): r for r in results},
    )


def render_rows(result: ScenarioMatrixResult) -> list[ReportRow]:
    """Reduce the matrix to the unified report-table row format."""
    rows: list[ReportRow] = []
    for scenario in result.config.scenarios:
        for system in result.config.systems:
            cell = result.cell(system, scenario)
            av = cell.availability
            rows.append(
                ReportRow(
                    experiment=scenario,
                    quantity=system,
                    paper="-",
                    measured=(
                        f"unavail {100.0 * av.unavailable_fraction:.1f} % "
                        f"({av.unavailable_ms / 1000.0:.1f} s / {av.n_outages} outages, "
                        f"worst {av.longest_outage_ms / 1000.0:.1f} s), "
                        f"{cell.unnecessary_elections} elections, "
                        f"{cell.false_detections} detections"
                    ),
                    verdict="safe" if cell.safe else "SAFETY VIOLATION",
                )
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="default matrix (alias; always quick)"
    )
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="restrict to these scenarios (repeatable; default: whole library)",
    )
    parser.add_argument(
        "--n-nodes",
        type=int,
        default=5,
        help="cluster size for every cell (default 5; scenarios scale with it)",
    )
    parser.add_argument(
        "--large-cluster-smoke",
        type=int,
        metavar="N",
        default=None,
        help=(
            "run the bounded large-cluster subset at N nodes (see "
            "ScenarioMatrixConfig.large_cluster_smoke); overrides "
            "--scenario/--n-nodes"
        ),
    )
    parser.add_argument(
        "--digest", action="store_true", help="print the result digest"
    )
    args = parser.parse_args(argv)
    if args.large_cluster_smoke is not None:
        cfg = dataclasses.replace(
            ScenarioMatrixConfig.large_cluster_smoke(args.large_cluster_smoke),
            seed=args.seed,
        )
    else:
        cfg = ScenarioMatrixConfig(
            seed=args.seed,
            n_nodes=args.n_nodes,
            scenarios=tuple(args.scenario) if args.scenario else scenario_names(),
        )
    result = run(cfg)
    print(
        render_markdown(
            render_rows(result),
            f"scenario matrix, seed {cfg.seed}, n={cfg.n_nodes}",
        )
    )
    if args.digest:
        print(f"digest: {digest(result.cells.values())}")
    violations = [
        (key, v) for key, cell in sorted(result.cells.items()) for v in cell.safety_violations
    ]
    if violations:
        print(f"\n{len(violations)} safety violation(s):", file=sys.stderr)
        for (system, scenario), v in violations:
            print(f"  [{system} × {scenario}] {v}", file=sys.stderr)
        return 1
    print(
        f"\nall {len(result.cells)} cells passed the partition safety checks "
        f"({len(cfg.systems)} systems × {len(cfg.scenarios)} scenarios)."
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
