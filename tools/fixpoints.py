"""Fixed points as data: the committed ``FIXPOINTS.json`` and one command.

    python -m tools.fixpoints [--check | --bless NAME...]

``FIXPOINTS.json`` holds, under ``"smoke"``, the digest each grid
experiment prints for ``python -m repro.experiments.<NAME> --smoke
--digest``: one ``grid.run`` of the grid's ``smoke`` config hashed by
``grid.digest``.  A change that means to keep behaviour (a diet, a speed-up)
leaves every entry as it is; a change of behaviour re-blesses the entries
it moves, so each re-bless is a reviewed diff of that file.

``--check`` (also what runs without a flag) recomputes every entry,
prints one line each and exits 1 naming every entry that moved.
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


def smoke_digest(name: str) -> str:
    """The ``--smoke --digest`` of grid ``name``, computed in-process."""
    from repro.experiments import grid

    spec = importlib.import_module(f"repro.experiments.{name}").GRID
    return grid.digest(grid.run(spec, spec.smoke), exclude=spec.digest_exclude)


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
    for name in names:
        start = time.perf_counter()
        now = smoke_digest(name)
        took = time.perf_counter() - start
        was = locked.get(name)
        if args.bless:
            locked[name] = now
            verdict = "kept" if now == was else f"blessed (was {was})"
        elif now == was:
            verdict = "ok"
        else:
            verdict = f"MOVED (locked {was})"
            moved.append(name)
        print(f"{name:<16} {now}  {verdict}  [{took:.1f} s]", flush=True)

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
        return 1
    print(f"\nfixpoints: all {len(names)} entries hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
