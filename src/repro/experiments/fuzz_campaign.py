"""Budgeted fuzz campaign: generated scenarios × {raft, dynatune} × oracle.

``python -m repro.experiments.fuzz_campaign --trials 200`` generates one
scenario per trial from SplitMix64-derived seeds, assigns systems
round-robin, and runs every trial through the full fuzz oracle
(:func:`repro.fuzz.oracle.run_trial`: partition-safety properties with
event hooks + client-history linearizability), fanned across
``REPRO_JOBS`` processes via the parallel runner.

Determinism contract — the same one every experiment here honours: a
trial is an independent simulation keyed by ``derive_trial_seed(seed,
index)``; workers *regenerate* scenarios from those seeds, so the task
list and every result depend only on the configuration.  ``REPRO_JOBS``
moves trials between processes and cannot change a byte of the report
(:func:`~repro.experiments.grid.digest` of the trial records is the
auditable proof).

On any violation the campaign shrinks the lowest-index failing trial to a
minimal scenario (delta debugging re-runs the oracle in-process), writes
the JSON reproducer into ``--out`` (default ``tests/fuzz/regressions``,
where the regression harness auto-collects it), and exits non-zero.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

from repro.experiments.grid import digest
from repro.experiments.runner import derive_trial_seed, run_tasks
from repro.fuzz.features import FEATURE_SETS
from repro.fuzz.generator import GenConfig, ScenarioGen
from repro.fuzz.oracle import FuzzTrialConfig, TrialOutcome, run_trial
from repro.fuzz.shrinker import shrink, write_reproducer

__all__ = [
    "FuzzCampaignConfig",
    "TrialRecord",
    "CampaignResult",
    "run",
    "main",
]

#: Systems fuzz trials rotate through (the two the paper's claim hinges on).
CAMPAIGN_SYSTEMS: tuple[str, ...] = ("raft", "dynatune")

#: Oracle re-runs the shrinker may spend on a failing trial.
SHRINK_EVALS = 120


@dataclasses.dataclass(slots=True, frozen=True)
class FuzzCampaignConfig:
    """Shape of one campaign (the budget knob is ``n_trials``)."""

    n_trials: int = 200
    seed: int = 11
    systems: tuple[str, ...] = CAMPAIGN_SYSTEMS
    gen: GenConfig = dataclasses.field(default_factory=GenConfig)
    #: Shared by every trial; its ``system``, ``n_nodes`` and ``seed`` are
    #: set per trial.
    trial: FuzzTrialConfig = dataclasses.field(default_factory=FuzzTrialConfig)

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials!r}")
        if not self.systems:
            raise ValueError("campaign needs at least one system")


@dataclasses.dataclass(slots=True, frozen=True, kw_only=True)
class TrialRecord(TrialOutcome):
    """One trial's identity, verdict and coverage (plain data, digestable)."""

    index: int
    system: str
    trial_seed: int
    scenario_name: str
    n_steps: int


@dataclasses.dataclass(slots=True, frozen=True)
class CampaignResult:
    config: FuzzCampaignConfig
    trials: tuple[TrialRecord, ...]

    @property
    def failures(self) -> tuple[TrialRecord, ...]:
        return tuple(t for t in self.trials if not t.ok)

    @property
    def all_ok(self) -> bool:
        return not self.failures


def _trial_config(config: FuzzCampaignConfig, index: int) -> tuple[FuzzTrialConfig, int]:
    trial_seed = derive_trial_seed(config.seed, index)
    system = config.systems[index % len(config.systems)]
    return (
        dataclasses.replace(
            config.trial,
            system=system,
            n_nodes=config.gen.n_nodes,
            seed=trial_seed,
        ),
        trial_seed,
    )


def _run_one(task: tuple[FuzzCampaignConfig, int]) -> TrialRecord:
    """Worker: regenerate trial ``index`` from seeds and run the oracle."""
    config, index = task
    trial_cfg, trial_seed = _trial_config(config, index)
    scenario = ScenarioGen(config.gen).generate(trial_seed)
    result = run_trial(trial_cfg, scenario)
    return TrialRecord(
        index=index,
        system=trial_cfg.system,
        trial_seed=trial_seed,
        scenario_name=scenario.name,
        n_steps=len(scenario.steps),
        **{f.name: getattr(result, f.name) for f in dataclasses.fields(TrialOutcome)},
    )


def run(config: FuzzCampaignConfig | None = None) -> CampaignResult:
    """Run the campaign (parallel across ``REPRO_JOBS``, bit-stable)."""
    cfg = config if config is not None else FuzzCampaignConfig()
    tasks = [(cfg, i) for i in range(cfg.n_trials)]
    trials = run_tasks(_run_one, tasks)
    return CampaignResult(config=cfg, trials=tuple(trials))


def shrink_failure(
    result: CampaignResult, record: TrialRecord, *, out_dir: str
) -> tuple[str, int]:
    """Shrink one failing trial and write its reproducer.

    Returns:
        ``(reproducer path, final step count)``.
    """
    cfg = result.config
    trial_cfg, trial_seed = _trial_config(cfg, record.index)
    scenario = ScenarioGen(cfg.gen).generate(trial_seed)
    shrunk = shrink(trial_cfg, scenario, max_evals=SHRINK_EVALS)
    # Content digest in the name: two campaigns can shrink the same trial
    # index (e.g. under different injections) without clobbering files.
    tag = hashlib.sha256(
        (json.dumps(trial_cfg.to_dict(), sort_keys=True) + shrunk.scenario.to_json())
        .encode()
    ).hexdigest()[:8]
    path = os.path.join(
        out_dir, f"{record.system}_trial{record.index}_{tag}.json"
    )
    write_reproducer(
        path,
        trial_cfg,
        shrunk.scenario,
        shrunk.violations,
        meta={
            "campaign_seed": cfg.seed,
            "trial_index": record.index,
            "shrink_evaluations": shrunk.evaluations,
            "initial_steps": shrunk.initial_steps,
        },
    )
    return path, shrunk.final_steps


# Test seam: tests drive the CLI in-process; a real run reads sys.argv.
# repolint: disable=param-knob-liveness
def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200, help="campaign budget")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--system",
        action="append",
        default=None,
        help="restrict to these systems (repeatable; default: raft + dynatune)",
    )
    parser.add_argument(
        "--horizon-ms",
        type=float,
        default=GenConfig().horizon_ms,
        help="scenario time horizon",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=GenConfig().max_steps,
        help="max primary steps per scenario",
    )
    parser.add_argument(
        "--inject",
        default=None,
        help="inject a known bug (oracle validation; see repro.fuzz.bugs)",
    )
    for name, feature in FEATURE_SETS.items():
        strength = feature.default_strength
        if strength is None:
            parser.add_argument(f"--{name}", action="store_true", help=feature.help)
        else:
            parser.add_argument(
                f"--{name}",
                nargs="?",
                type=type(strength),
                const=strength,
                default=None,
                metavar="THRESHOLD" if isinstance(strength, int) else "PROB",
                help=f"{feature.help} (default {strength} when the flag is bare)",
            )
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "directory for shrunk reproducers on failure (default: "
            "tests/fuzz/regressions, or fuzz-artifacts when --inject is "
            "set — planted-bug reproducers must not enter the regression "
            "corpus, where they would be collected as meaningless tests)"
        ),
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="report failures without shrinking"
    )
    parser.add_argument(
        "--digest", action="store_true", help="print the campaign result digest"
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (
            "fuzz-artifacts"
            if args.inject
            else os.path.join("tests", "fuzz", "regressions")
        )

    try:
        gen = GenConfig(horizon_ms=args.horizon_ms, max_steps=args.max_steps)
    except ValueError as error:
        parser.error(str(error))
    trial = FuzzTrialConfig(inject=args.inject)
    features = {}
    for name, feature in FEATURE_SETS.items():
        value = getattr(args, name)
        if value is None or value is False:
            continue
        strength = value if feature.tunes else None
        if strength is not None and (error := feature.strength_error(strength)):
            parser.error(f"--{name} {error}")
        gen, trial = feature.apply(gen, trial, strength)
        features[name] = feature
    cfg = FuzzCampaignConfig(
        n_trials=args.trials,
        seed=args.seed,
        systems=tuple(args.system) if args.system else CAMPAIGN_SYSTEMS,
        gen=gen,
        trial=trial,
    )
    result = run(cfg)

    n_ops = sum(t.n_ops for t in result.trials)
    n_completed = sum(t.n_completed for t in result.trials)
    undecided = sum(1 for t in result.trials if t.lin_undecided)
    print(
        f"fuzz campaign: {len(result.trials)} trials (seed {cfg.seed}, "
        f"systems {'/'.join(cfg.systems)}), {n_ops} client ops "
        f"({n_completed} completed), {undecided} undecided linearizability searches"
    )
    for name, feature in features.items():
        counts = ", ".join(
            f"{sum(getattr(t, counter) for t in result.trials)} {label}"
            for counter, label in feature.coverage
        )
        print(f"{name} coverage: {counts} across the campaign")
    if args.digest:
        print(f"digest: {digest(result.trials)}")

    failures = result.failures
    if not failures:
        print("all trials passed the safety + linearizability oracle.")
        return 0

    print(f"\n{len(failures)} failing trial(s):", file=sys.stderr)
    for rec in failures[:10]:
        for v in rec.violations[:3]:
            print(f"  [trial {rec.index} · {rec.system}] {v}", file=sys.stderr)
    first = failures[0]
    if args.no_shrink:
        return 1
    print(
        f"\nshrinking trial {first.index} ({first.n_steps} steps)...",
        file=sys.stderr,
    )
    path, final_steps = shrink_failure(result, first, out_dir=args.out)
    print(
        f"minimal reproducer ({final_steps} steps) written to {path}",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
