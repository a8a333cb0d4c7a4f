"""The one grid harness: run, digest, find and the CLI every grid shares.

A grid experiment (a paper figure, or a fault grid such as elastic) is a
module holding a config dataclass, a ``cells`` function deriving one task
per grid cell, a picklable ``run_one`` worker reducing a cell to a result
record, a ``check`` returning the failed acceptance gates, and a
:class:`Grid` spec naming them.  Everything else is here, once:

* :func:`run` fans the cells across ``REPRO_JOBS`` via
  :func:`~repro.experiments.runner.run_tasks`; each cell is an independent
  simulation keyed by its config, so results — and :func:`digest` — are
  byte-identical for any job count;
* :func:`digest` hashes the canonical JSON of the result records (numpy
  arrays as lists, numpy scalars as numbers);
* :func:`find` looks a record up by field values;
* :func:`main` is the CLI (``python -m repro.experiments.<grid>``):
  ``--system`` / ``--digest`` / ``--smoke`` (the CI budget, every gate
  still on), ``--seed`` where the config has one, and one repeatable
  filter per declared axis; the result table, and a non-zero exit listing
  every failed gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import sys
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.runner import run_tasks
from repro.fuzz.workload import WorkloadConfig

__all__ = ["RTT_MS", "SUSTAINED_LOAD", "NO_GATES", "Grid", "run", "digest", "find", "main"]

#: Pairwise RTT of the clusters the fault grids run on.
RTT_MS = 50.0
#: The closed-loop client load a grid cell carries while its faults play:
#: a few busy clients on a tiny contended key space, for the whole run.
SUSTAINED_LOAD = WorkloadConfig(
    n_clients=3,
    n_keys=4,
    op_timeout_ms=1_500.0,
    think_min_ms=10.0,
    think_max_ms=60.0,
    start_ms=400.0,
    max_ops_per_client=1_000_000,
)

#: ``held`` of a paper figure without gates of its own.
NO_GATES = "no gates here: tier-1 tests hold the shape, report the paper numbers"


@dataclasses.dataclass(frozen=True)
class Grid:
    """What one grid experiment is made of (see the module docs)."""

    name: str
    #: Base config of the full grid (a paper figure's: the paper's
    #: parameters) and of the ``--smoke`` CI budget.
    full: Any
    smoke: Any
    #: ``(base config, systems)`` → one task per cell, in report order.
    cells: Callable[[Any, tuple[str, ...]], list[Any]]
    #: Module-level worker: one task → one result record (a dataclass).
    run_one: Callable[[Any], Any]
    #: Result records → failed gates (empty: all held).
    check: Callable[[Sequence[Any]], list[str]]
    #: Table: header line from the base config, column names, one row of
    #: cell strings per record, optional closing lines over all records.
    title: Callable[[Any], str]
    columns: tuple[str, ...]
    row: Callable[[Any], tuple[str, ...]]
    #: What "all gates held" means here, for the closing line.
    held: str
    summary: Callable[[Sequence[Any]], list[str]] = lambda runs: []
    #: Task fields the CLI can filter on besides ``--system``, with the
    #: values each takes.
    axes: dict[str, tuple[str, ...]] = dataclasses.field(default_factory=dict)
    systems: tuple[str, ...] = ("raft", "dynatune")
    #: Gates for the smoke budget where they differ from :attr:`check`.
    smoke_check: Callable[[Sequence[Any]], list[str]] | None = None
    #: Worker processes; ``None`` reads ``REPRO_JOBS``.
    jobs: int | None = None
    #: Machine-dependent record fields left out of :func:`digest`.
    digest_exclude: tuple[str, ...] = ()


def run(
    grid: Grid,
    base: Any = None,
    *,
    systems: tuple[str, ...] | None = None,
    # Test seam: tests compare jobs=1 with jobs=N; runs read REPRO_JOBS.
    # repolint: disable=param-knob-liveness
    jobs: int | None = None,
    **keep: Iterable[Any],
) -> tuple[Any, ...]:
    """Run the grid's cells (``keep`` restricts a declared axis to the
    given values) and return their result records in cell order."""
    tasks = grid.cells(
        grid.full if base is None else base,
        grid.systems if systems is None else systems,
    )
    for axis, allowed in keep.items():
        allowed = set(allowed)
        tasks = [t for t in tasks if getattr(t, axis) in allowed]
    return tuple(
        run_tasks(grid.run_one, tasks, jobs=grid.jobs if jobs is None else jobs)
    )


def digest(records: Iterable[Any], *, exclude: tuple[str, ...] = ()) -> str:
    """SHA-256 over the canonical JSON of every result record
    (``REPRO_JOBS``-invariant)."""
    payload = []
    for record in records:
        d = dataclasses.asdict(record)
        for name in exclude:
            del d[name]
        payload.append(d)
    # numpy arrays become JSON lists, numpy scalars JSON numbers.
    encoded = json.dumps(payload, sort_keys=True, default=lambda v: v.tolist())
    return hashlib.sha256(encoded.encode()).hexdigest()


def find(records: Iterable[Any], **keys: Any) -> Any:
    """The first record whose fields equal ``keys``; ``KeyError`` if none."""
    for record in records:
        if all(getattr(record, k) == v for k, v in keys.items()):
            return record
    raise KeyError(f"no run with {keys}")


def _print_table(columns: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    widths = [max(len(c), *(len(r[i]) for r in rows)) for i, c in enumerate(columns)]
    for line in [columns, *rows]:
        first, *rest = (
            cell.ljust(w) if i == 0 else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(line, widths))
        )
        print(" ".join([first, *rest]).rstrip())


# Test seam: tests drive the CLI in-process; a real run reads sys.argv.
# repolint: disable=param-knob-liveness
def main(grid: Grid, argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments.{grid.name}",
        description=inspect.getmodule(grid.run_one).__doc__.splitlines()[0],
    )
    seeded = any(f.name == "seed" for f in dataclasses.fields(grid.full))
    if seeded:
        parser.add_argument("--seed", type=int, default=None, help="base seed")
    parser.add_argument(
        "--system", action="append", help="restrict systems (repeatable)"
    )
    for axis, values in grid.axes.items():
        parser.add_argument(
            f"--{axis}",
            action="append",
            choices=values,
            help=f"restrict {axis} (repeatable)",
        )
    parser.add_argument("--digest", action="store_true", help="print the result digest")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI budget: a smaller grid with every gate still asserted",
    )
    args = parser.parse_args(argv)

    base = grid.smoke if args.smoke else grid.full
    if seeded and args.seed is not None:
        base = dataclasses.replace(base, seed=args.seed)
    keep = {a: getattr(args, a) for a in grid.axes if getattr(args, a)}
    try:
        runs = run(
            grid, base, systems=tuple(args.system) if args.system else None, **keep
        )
    except ValueError as exc:  # a config or cell list rejecting the request
        parser.error(str(exc))

    seed = f", seed {base.seed}" if seeded else ""
    print(f"# {grid.name} — {grid.title(base)}{seed}")
    _print_table(grid.columns, [grid.row(r) for r in runs])
    for line in grid.summary(runs):
        print(line)
    if args.digest:
        print(f"digest: {digest(runs, exclude=grid.digest_exclude)}")

    check = grid.smoke_check if args.smoke and grid.smoke_check else grid.check
    problems = check(runs)
    if problems:
        print(f"\n{len(problems)} {grid.name} gate(s) failed:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"\nall {grid.name} gates held ({grid.held}).")
    return 0
