"""Fixed points as data: the committed ``FIXPOINTS.json`` and one command.

    python -m tools.fixpoints [--check | --bless NAME...]

``FIXPOINTS.json`` holds, under ``"smoke"``, the digest each grid
experiment prints for ``python -m repro.experiments.<NAME> --smoke
--digest``: one ``grid.run`` of the grid's ``smoke`` config hashed by
``grid.digest``.  A change that means to keep behaviour (a diet, a speed-up)
leaves every entry as it is; a change of behaviour re-blesses the entries
it moves, so each re-bless is a reviewed diff of that file.

``--check`` (also what runs without a flag) recomputes every entry,
evaluates the grid's smoke gates (``smoke_check``, else ``check``) on the
same records, prints one line each and exits 1 naming every entry that
moved and every grid whose gates failed.
``--bless NAME...`` recomputes the named grids and rewrites only their
entries (a new grid name adds an entry).  Entries run one after the other
in this process; ``REPRO_JOBS`` fans each grid's cells out as it does for
the grid's own CLI, and no value of it moves a digest.
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


def smoke_run(name: str) -> tuple[str, list[str]]:
    """The ``--smoke --digest`` of grid ``name`` and the gates that run
    failed, computed in-process."""
    from repro.experiments import grid

    spec = importlib.import_module(f"repro.experiments.{name}").GRID
    runs = grid.run(spec, spec.smoke)
    failed = (spec.smoke_check or spec.check)(runs)
    return grid.digest(runs, exclude=spec.digest_exclude), failed


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
    locked = lock["smoke"]
    names = args.bless or sorted(locked)
    moved = []
    gates: dict[str, list[str]] = {}
    for name in names:
        start = time.perf_counter()
        now, failed = smoke_run(name)
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
        lock["smoke"] = dict(sorted(locked.items()))
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
