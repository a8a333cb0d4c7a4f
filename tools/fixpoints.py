"""Fixed points as data: the committed ``FIXPOINTS.json`` and one command.

    python -m tools.fixpoints [--check | --bless NAME...]

``FIXPOINTS.json`` holds two sections of digests:

* ``"smoke"``: what each grid experiment prints for ``python -m
  repro.experiments.<NAME> --smoke --digest`` — one ``grid.run`` of the
  grid's ``smoke`` config hashed by ``grid.digest``;
* ``"campaign"``: what ``python -m repro.experiments.fuzz_campaign``
  prints for ``--digest`` in each run of :data:`CAMPAIGNS` — one small
  campaign per fuzz feature set, so a change to the generator, the
  oracle or a feature's cluster path that moves a trial shows.

A change that means to keep behaviour (a diet, a speed-up) leaves every
entry as it is; a change of behaviour re-blesses the entries it moves, so
each re-bless is a reviewed diff of that file.

``--check`` (also what runs without a flag) recomputes every entry,
evaluates its gates on the same records — a grid's smoke gates
(``smoke_check``, else ``check``), a campaign's "no failing trial" —
prints one line each and exits 1 naming every entry that moved and every
entry whose gates failed.
``--bless NAME...`` recomputes the named entries and rewrites only those
(a new grid name adds a ``"smoke"`` entry).  Entries run one after the
other in this process; ``REPRO_JOBS`` fans each run's cells or trials out
as it does for the CLI, and no value of it moves a digest.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LOCK = os.path.join(ROOT, "FIXPOINTS.json")

#: The ``"campaign"`` entries: ``(feature set, trials, seed)`` of a
#: ``fuzz_campaign`` run (``None``: no feature flag).  Each set runs at the
#: seed of its CI campaign; compaction, which has none, at the default's.
CAMPAIGNS: dict[str, tuple[str | None, int, int]] = {
    "fuzz_default": (None, 20, 1107),
    "fuzz_compaction": ("compaction", 20, 1107),
    "fuzz_membership": ("membership", 20, 1107),
    "fuzz_serving": ("serving", 20, 3111),
    "fuzz_disk": ("disk", 20, 4119),
    "fuzz_gray": ("gray", 10, 5123),
}


def smoke_run(name: str) -> tuple[str, list[str]]:
    """The ``--smoke --digest`` of grid ``name`` and the gates that run
    failed, computed in-process."""
    from repro.experiments import grid

    spec = importlib.import_module(f"repro.experiments.{name}").GRID
    runs = grid.run(spec, spec.smoke)
    failed = (spec.smoke_check or spec.check)(runs)
    return grid.digest(runs, exclude=spec.digest_exclude), failed


def campaign_run(name: str) -> tuple[str, list[str]]:
    """The ``--digest`` of campaign ``name`` and its failing trials,
    computed in-process (``fuzz_campaign --trials N --seed S [--SET]``)."""
    from repro.experiments import fuzz_campaign, grid
    from repro.fuzz.features import FEATURE_SETS
    from repro.fuzz.generator import GenConfig
    from repro.fuzz.oracle import FuzzTrialConfig

    feature, n_trials, seed = CAMPAIGNS[name]
    gen, trial = GenConfig(), FuzzTrialConfig()
    if feature is not None:
        gen, trial = FEATURE_SETS[feature].apply(gen, trial)
    result = fuzz_campaign.run(
        fuzz_campaign.FuzzCampaignConfig(
            n_trials=n_trials, seed=seed, gen=gen, trial=trial
        )
    )
    failed = [
        f"trial {t.index} ({t.system}) failed: {t.violations[0]}"
        for t in result.failures
    ]
    return grid.digest(result.trials), failed


def main(argv: list[str] | None = None) -> int:
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="check every entry (default)")
    mode.add_argument("--bless", nargs="+", metavar="NAME", help="entries to rewrite")
    args = parser.parse_args(argv)

    with open(LOCK) as f:
        lock = json.load(f)
    sections = {section: lock.get(section, {}) for section in ("smoke", "campaign")}
    names = args.bless or [name for locked in sections.values() for name in sorted(locked)]
    moved = []
    gates: dict[str, list[str]] = {}
    for name in names:
        campaign = name in CAMPAIGNS
        locked = sections["campaign" if campaign else "smoke"]
        start = time.perf_counter()
        now, failed = (campaign_run if campaign else smoke_run)(name)
        took = time.perf_counter() - start
        if failed:
            gates[name] = failed
        was = locked.get(name)
        if args.bless:
            locked[name] = now
            verdict = "kept" if now == was else f"blessed (was {was})"
        elif now == was:
            verdict = "ok"
        else:
            verdict = f"MOVED (locked {was})"
            moved.append(name)
        gated = f"{len(failed)} gate(s) FAILED" if failed else "gates held"
        print(f"{name:<16} {now}  {verdict}, {gated}  [{took:.1f} s]", flush=True)

    if args.bless:
        for section, locked in sections.items():
            if locked:
                lock[section] = dict(sorted(locked.items()))
        with open(LOCK, "w") as f:
            json.dump(lock, f, indent=2)
            f.write("\n")
        return 0
    if moved:
        print(
            f"\nfixpoints: {len(moved)} of {len(names)} entries moved: {', '.join(moved)}",
            file=sys.stderr,
        )
    for name, failed in gates.items():
        print(f"\nfixpoints: {name}: {len(failed)} gate(s) failed:", file=sys.stderr)
        for problem in failed:
            print(f"  {problem}", file=sys.stderr)
    if moved or gates:
        return 1
    print(f"\nfixpoints: all {len(names)} entries hold and their gates held.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
