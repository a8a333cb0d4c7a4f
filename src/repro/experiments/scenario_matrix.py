"""Scenario matrix: {Raft-Low, Raft, Dynatune} × the scenario library.

``python -m repro.experiments.scenario_matrix`` drives every canonical
scenario (:mod:`repro.scenarios.library`) against the three
election-parameter policies and reports per cell:

* **unavailability** — total/fraction/longest leaderless time after the
  first election (the OTS figure of merit);
* **thrash** — term-incrementing elections and election-timer expirations
  after the first leader (false elections / false detections);
* **safety** — the partition safety properties (one leader per term,
  monotone commit, no committed-entry loss) checked over the whole run.

Each (system, scenario) pair is one cell of :data:`GRID`, seeded by its
index in the full :data:`MATRIX_SYSTEMS` × ``scenarios`` product, so a run
filtered by ``--system`` or ``--scenario`` reproduces its cells of the
full matrix.  ``--smoke`` is the 25-node partition-heavy subset.  The
process exits non-zero if any cell violates a safety property — scenario
breakage fails the build.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Sequence

from repro.cluster.builder import ClusterConfig
from repro.cluster.measurements import leaderless_intervals
from repro.experiments import grid
from repro.experiments.runner import derive_trial_seed
from repro.fuzz.oracle import CheckedRun
from repro.scenarios.library import build_scenario, scenario_names

__all__ = ["ScenarioMatrixConfig", "ScenarioCellResult", "GRID", "run_one", "check"]

#: The three systems the matrix compares (Fix-K adds nothing here: the
#: partition scenarios stress Et, not the h/K trade).
MATRIX_SYSTEMS: tuple[str, ...] = ("raft-low", "raft", "dynatune")

#: The ``--smoke`` subset, run at 25 nodes: the scenarios whose dynamics
#: change with cluster size (splits and leader churn).  The per-pair
#: impairment ones have O(N) steps and size-independent behaviour, so they
#: are left to the 5-node full matrix — this is a wall-clock-budgeted
#: scaling canary, not coverage.
LARGE_CLUSTER_SCENARIOS: tuple[str, ...] = (
    "symmetric_split",
    "minority_partition",
    "majority_partition",
    "leader_churn_loop",
)


@dataclasses.dataclass(slots=True, frozen=True)
class ScenarioMatrixConfig:
    """One (system, scenario) cell of a matrix over ``scenarios`` (the
    grid's cells derive one per system and scenario, each with its own
    seed)."""

    system: str = "dynatune"
    scenario: str = "symmetric_split"
    scenarios: tuple[str, ...] = dataclasses.field(default_factory=scenario_names)
    n_nodes: int = 5
    seed: int = 21
    #: Run time past the scenario's last effect (heal + converge window).
    settle_ms: float = 10_000.0

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("matrix needs at least one scenario")
        if self.settle_ms < 0.0:
            raise ValueError(f"settle_ms must be >= 0, got {self.settle_ms!r}")


@dataclasses.dataclass(slots=True, frozen=True)
class AvailabilityStats:
    """Unavailability profile of one run window.

    Attributes:
        window_ms: length of the observation window.
        unavailable_ms: total leaderless time inside the window.
        unavailable_fraction: ``unavailable_ms / window_ms`` (0 for an
            empty window).
        n_outages: number of distinct leaderless intervals.
        longest_outage_ms: the worst single interval (0 with no outage).
    """

    window_ms: float
    unavailable_ms: float
    unavailable_fraction: float
    n_outages: int
    longest_outage_ms: float


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


def run_one(config: ScenarioMatrixConfig) -> ScenarioCellResult:
    run = CheckedRun(
        ClusterConfig(n_nodes=config.n_nodes, seed=config.seed), config.system
    )
    cluster = run.cluster
    scenario = build_scenario(config.scenario, cluster.names)
    scenario.install(cluster)
    cluster.start()
    end = scenario.end_ms + config.settle_ms
    cluster.run_until(end)

    leaders = cluster.trace.of_kind("become_leader")
    t_first = leaders[0].time if leaders else None
    window_start = t_first if t_first is not None else 0.0
    # Already clipped to the window, with no empty interval.
    intervals = leaderless_intervals(cluster.trace, t_start=window_start, t_end=end)
    outages = [b - a for a, b in intervals]
    down = float(sum(outages))
    window = end - window_start
    steps = cluster.trace.of_kind("scenario_step")
    skipped = sum(1 for r in steps if r.get("skipped"))
    return ScenarioCellResult(
        system=config.system,
        scenario=config.scenario,
        duration_ms=end,
        first_leader_ms=t_first,
        availability=AvailabilityStats(
            window_ms=window,
            unavailable_ms=down,
            unavailable_fraction=down / window if window > 0.0 else 0.0,
            n_outages=len(outages),
            longest_outage_ms=max(outages, default=0.0),
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


def _cells(
    base: ScenarioMatrixConfig, systems: tuple[str, ...]
) -> list[ScenarioMatrixConfig]:
    unknown = set(systems) - set(MATRIX_SYSTEMS)
    if unknown:
        raise ValueError(f"the matrix compares {MATRIX_SYSTEMS}, not {sorted(unknown)}")
    pairs = [(system, sc) for system in MATRIX_SYSTEMS for sc in base.scenarios]
    return [
        dataclasses.replace(
            base, system=system, scenario=sc, seed=derive_trial_seed(base.seed, i)
        )
        for i, (system, sc) in enumerate(pairs)
        if system in systems
    ]


def check(runs: Sequence[ScenarioCellResult]) -> list[str]:
    """One line per safety violation, over every cell."""
    return [f"[{r.system} × {r.scenario}] {v}" for r in runs for v in r.safety_violations]


def _row(r: ScenarioCellResult) -> tuple[str, ...]:
    av = r.availability
    return (
        f"{r.system}/{r.scenario}",
        f"{100.0 * av.unavailable_fraction:.1f} %",
        f"{av.unavailable_ms / 1000.0:.1f} s",
        str(av.n_outages),
        f"{av.longest_outage_ms / 1000.0:.1f} s",
        str(r.unnecessary_elections),
        str(r.false_detections),
        "safe" if r.safe else "SAFETY VIOLATION",
    )


GRID = grid.Grid(
    name="scenario_matrix",
    full=ScenarioMatrixConfig(),
    smoke=ScenarioMatrixConfig(n_nodes=25, scenarios=LARGE_CLUSTER_SCENARIOS),
    cells=_cells,
    run_one=run_one,
    check=check,
    title=lambda c: (
        f"{c.n_nodes} nodes, {len(c.scenarios)} scenarios, "
        f"settle {c.settle_ms / 1000.0:g} s"
    ),
    columns=("run", "unavail", "down", "outages", "worst", "elections", "detections", "safety"),
    row=_row,
    held="one leader per term, monotone commit, no committed-entry loss",
    axes={"scenario": scenario_names()},
    systems=MATRIX_SYSTEMS,
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
