"""``BENCHMARK.json`` (names, units, directions, bounds), ``gates.json``
(what its fixed keys cannot carry) and what a run prints."""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Units of metrics read off the host clock (or its memory).  Every other
#: metric is simulated time or a count: a pure function of seed and rounds.
HOST_UNITS = frozenset({"s", "ms", "us", "MB", "1/s", "sim-s/s", "wall-share", "wall-ratio"})

#: ``run.py`` prints its full record behind this word on the line before
#: the contract's last line.
RECORD = "record "


def load() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_gates() -> dict:
    """``gates.json``, each simulated gate completed with the unit and
    direction ``BENCHMARK.json`` gives that name."""
    with open(os.path.join(HERE, "gates.json"), encoding="utf-8") as fh:
        gates = json.load(fh)
    listed = {m["name"]: m for m in load()["per_layer"]}
    for gate in gates["simulated"]:
        gate.update(unit=listed[gate["name"]]["unit"], better=listed[gate["name"]]["better"])
    return gates


def read_run(stdout: str) -> tuple[dict, dict] | None:
    """(record, last-line JSON) of one ``run.py --workload`` run, or None
    when the process died before printing them."""
    lines = stdout.splitlines()
    try:
        if not lines[-2].startswith(RECORD):
            return None
        return json.loads(lines[-2][len(RECORD):]), json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
