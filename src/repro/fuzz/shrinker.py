"""Delta-debugging shrinker: failing scenario → minimal JSON reproducer.

Given a ``(FuzzTrialConfig, Scenario)`` pair whose trial reports
violations, :func:`shrink` deterministically searches for a smaller
scenario that still fails:

1. **ddmin over steps** — the classic Zeller/Hildebrandt loop: try
   dropping progressively finer chunks of the step list, keeping any
   reduction that still reproduces a violation;
2. **per-step simplification** — for each surviving step, try a fixed
   menu of simpler variants (drop ``repeat``, halve its ``times``, shrink
   durations, widen a per-pair impairment to global) and keep those that
   still fail;

both repeated to a fixpoint or the evaluation budget.  Every candidate is
evaluated by re-running the full trial — same seed, same oracle — so the
process is as deterministic as the simulator itself.

"Still fails" means *any* violation, not the identical message: shrinking
often simplifies one safety violation into a cleaner one, and pinning the
exact string would forbid exactly the simplifications we want.

:func:`write_reproducer` / :func:`load_reproducer` define the reproducer
JSON format the regression harness (``tests/fuzz/test_regressions.py``)
replays.  A reproducer's trial config never carries an injected bug —
the injection (if any) that revealed the scenario is recorded as metadata
only, so regression replays assert the *fixed* system stays clean on the
minimized timeline.

Format v1's trial config once carried four more keys, now constants of
:mod:`repro.fuzz.oracle`: ``rtt_ms`` (50.0), ``loss`` (0.0),
``safety_interval_ms`` (250.0) and ``lin_budget`` (500 000).  A file that
holds one loads only at that value (``RETIRED_KEYS``); any other value
raises ``ValueError`` naming the key, since that file describes a trial
this code cannot run.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable

from repro.fuzz.oracle import FuzzTrialConfig, TrialResult, run_trial
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import Step

__all__ = [
    "ShrinkResult",
    "shrink",
    "reproducer_dict",
    "write_reproducer",
    "load_reproducer",
]

REPRODUCER_FORMAT = "dynatune-fuzz-reproducer-v1"


@dataclasses.dataclass(slots=True, frozen=True)
class ShrinkResult:
    """Outcome of one shrink run.

    Attributes:
        scenario: the minimized scenario (still failing).
        violations: the minimized scenario's violations.
        evaluations: oracle runs spent.
        initial_steps / final_steps: step counts before/after.
    """

    scenario: Scenario
    violations: tuple[str, ...]
    evaluations: int
    initial_steps: int
    final_steps: int


def _step_variants(step: Step) -> list[Step]:
    """Simpler candidate replacements for one step, most aggressive first."""
    variants: list[Step] = []
    repeat = getattr(step, "repeat", None)
    if repeat is not None:
        variants.append(dataclasses.replace(step, repeat=None))
        if repeat.times > 2:
            variants.append(
                dataclasses.replace(
                    step,
                    repeat=dataclasses.replace(repeat, times=max(2, repeat.times // 2)),
                )
            )
    for field, floor in (("duration_ms", 100.0), ("down_ms", 100.0)):
        value = getattr(step, field, None)
        if value is not None and value > 2.0 * floor:
            try:
                variants.append(dataclasses.replace(step, **{field: float(value) / 2.0}))
            except ValueError:
                pass  # e.g. a Flap whose repeat period forbids the new down_ms
    if getattr(step, "pair", None) is not None:
        variants.append(dataclasses.replace(step, pair=None))
    if step.at_ms != round(step.at_ms, -2):
        rounded = max(0.0, float(round(step.at_ms, -2)))
        variants.append(dataclasses.replace(step, at_ms=rounded))
    return variants


def shrink(
    config: FuzzTrialConfig,
    scenario: Scenario,
    *,
    max_evals: int = 160,
    # Test seam: tests shrink against a fake oracle instead of full trials.
    # repolint: disable=param-knob-liveness
    oracle: Callable[[FuzzTrialConfig, Scenario], TrialResult] = run_trial,
) -> ShrinkResult:
    """Minimize ``scenario`` while ``oracle(config, scenario)`` still fails.

    Raises:
        ValueError: if the initial pair does not fail (nothing to shrink).
    """
    evals = 0

    def fails(candidate: Scenario) -> bool:
        nonlocal evals
        evals += 1
        return bool(oracle(config, candidate).violations)

    if not fails(scenario):
        raise ValueError("shrink needs a failing (config, scenario) pair")
    initial_steps = len(scenario.steps)
    current = scenario

    # -- phase 1: ddmin over the step list ------------------------------- #
    steps = list(current.steps)
    granularity = 2
    while len(steps) >= 1 and evals < max_evals:
        chunk = max(1, len(steps) // granularity)
        reduced = False
        start = 0
        while start < len(steps) and evals < max_evals:
            candidate_steps = steps[:start] + steps[start + chunk :]
            if len(candidate_steps) == len(steps):
                break
            if fails(current.with_steps(candidate_steps)):
                steps = candidate_steps
                reduced = True
                # Same position now holds the next chunk; do not advance.
            else:
                start += chunk
        if reduced:
            granularity = max(2, granularity - 1)
        elif chunk == 1:
            break
        else:
            granularity = min(len(steps), granularity * 2)
    current = current.with_steps(steps)

    # -- phase 2: per-step simplification to a fixpoint ------------------- #
    improved = True
    while improved and evals < max_evals:
        improved = False
        for i, step in enumerate(list(current.steps)):
            for variant in _step_variants(step):
                if evals >= max_evals:
                    break
                candidate_steps = list(current.steps)
                candidate_steps[i] = variant
                candidate = current.with_steps(candidate_steps)
                if fails(candidate):
                    current = candidate
                    improved = True
                    break  # re-derive variants from the simpler step

    # Re-establish the minimized scenario's own verdict (cheap relative
    # to the search; determinism guarantees it still fails).
    final = oracle(config, current)
    evals += 1
    return ShrinkResult(
        scenario=current,
        violations=final.violations,
        evaluations=evals,
        initial_steps=initial_steps,
        final_steps=len(current.steps),
    )


# --------------------------------------------------------------------- #
# reproducer files
# --------------------------------------------------------------------- #


def reproducer_dict(
    config: FuzzTrialConfig,
    scenario: Scenario,
    violations: tuple[str, ...],
    *,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The canonical reproducer payload (strips any injected bug)."""
    trial = config.to_dict()
    injected = trial.pop("inject", None)
    trial["inject"] = None
    full_meta = dict(meta or {})
    if injected is not None:
        full_meta["found_with_injected_bug"] = injected
    return {
        "format": REPRODUCER_FORMAT,
        "trial": trial,
        "scenario": scenario.to_dict(),
        "violations_when_found": list(violations),
        "meta": full_meta,
    }


def write_reproducer(
    path: str,
    config: FuzzTrialConfig,
    scenario: Scenario,
    violations: tuple[str, ...],
    *,
    meta: dict[str, Any] | None = None,
) -> str:
    """Write a reproducer JSON file; returns ``path``."""
    payload = reproducer_dict(config, scenario, violations, meta=meta)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_reproducer(path: str) -> tuple[FuzzTrialConfig, Scenario, dict[str, Any]]:
    """Load a reproducer file → ``(trial config, scenario, raw payload)``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != REPRODUCER_FORMAT:
        raise ValueError(
            f"{path}: unknown reproducer format {payload.get('format')!r}"
        )
    config = FuzzTrialConfig.from_dict(payload["trial"])
    scenario = Scenario.from_dict(payload["scenario"])
    return config, scenario, payload
