"""Shared experiment infrastructure: system registry and scale presets.

The paper evaluates four systems (§IV); they differ *only* in the tuning
policy attached to each node:

* ``raft`` — etcd defaults: Et = 1000 ms, h = 100 ms, heartbeats over TCP;
* ``raft-low`` — the §IV-C1 baseline with parameters at 1/10 of default;
* ``dynatune`` — the paper's system (s = 2, x = 0.999, minList 10,
  maxList 1000, UDP heartbeats);
* ``fix-k`` — Dynatune with ``h``-tuning disabled, K pinned to 10
  (§IV-C2's comparison variant).

Scales: the paper's runs are long (1000 failures; 3-minute loss dwells;
65-server clusters).  ``paper`` reproduces those parameters; ``quick``
shrinks repetition counts and dwells (never the mechanism) so the full
suite runs in CI time.  Select with ``REPRO_SCALE=quick|paper``.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable

from repro.dynatune.config import DynatuneConfig
from repro.dynatune.policy import DynatunePolicy, StaticPolicy, TuningPolicy

__all__ = [
    "SYSTEMS",
    "Scale",
    "QUICK",
    "PAPER",
    "get_scale",
    "get_jobs",
    "make_policy_factory",
]

#: The four evaluated systems, by paper name.
SYSTEMS: tuple[str, ...] = ("raft", "raft-low", "dynatune", "fix-k")


def make_policy_factory(system: str) -> Callable[[str], TuningPolicy]:
    """Policy factory for one of the paper's systems (see module docs)."""
    if system == "raft":
        return lambda name: StaticPolicy.raft_default()
    if system == "raft-low":
        return lambda name: StaticPolicy.raft_low()
    if system == "dynatune":
        return lambda name: DynatunePolicy(DynatuneConfig())
    if system == "fix-k":
        return lambda name: DynatunePolicy(DynatuneConfig(fixed_k=10))
    raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")


@dataclasses.dataclass(slots=True, frozen=True)
class Scale:
    """Repetition counts and dwells for one suite scale."""

    name: str
    #: Leader kills for Figs. 4 and 8 (paper: 1000).
    fig4_failures: int
    #: Fig. 5 staircase repeats (paper: 10).
    fig5_repeats: int
    #: Dwell per RTT step in Fig. 6 (paper: 60 s).
    fig6_dwell_ms: float
    #: Dwell per loss level in Fig. 7 (paper: 180 s).
    fig7_dwell_ms: float
    #: Cluster sizes for Fig. 7 (paper: 5, 17, 65).
    fig7_sizes: tuple[int, ...]
    #: Cluster sizes for the large-cluster scaling sweep (fig_scale).
    scale_sizes: tuple[int, ...] = (5, 25, 51)
    #: Leader kills per (system, size) cell in the scaling sweep.
    scale_failures: int = 3
    #: Load window of the compaction soak (experiments/soak.py); the grid
    #: also runs a 2x window per system to probe catch-up flatness.
    soak_duration_ms: float = 60_000.0


QUICK = Scale(
    name="quick",
    fig4_failures=60,
    fig5_repeats=3,
    fig6_dwell_ms=12_000.0,
    fig7_dwell_ms=20_000.0,
    fig7_sizes=(5, 17),
    scale_sizes=(5, 25, 51),
    scale_failures=3,
    soak_duration_ms=60_000.0,
)

PAPER = Scale(
    name="paper",
    fig4_failures=1000,
    fig5_repeats=10,
    fig6_dwell_ms=60_000.0,
    fig7_dwell_ms=180_000.0,
    fig7_sizes=(5, 17, 65),
    scale_sizes=(5, 25, 51, 101),
    scale_failures=10,
    soak_duration_ms=300_000.0,
)


def get_scale() -> Scale:
    """Scale selected by ``REPRO_SCALE`` (default: quick)."""
    name = os.environ.get("REPRO_SCALE", "quick").strip().lower()
    if name == "paper":
        return PAPER
    if name == "quick":
        return QUICK
    raise ValueError(f"REPRO_SCALE must be 'quick' or 'paper', got {name!r}")


def get_jobs() -> int:
    """Worker processes selected by ``REPRO_JOBS`` (default: 1).

    ``REPRO_JOBS=1`` (or unset) runs everything in-process — the fully
    deterministic, debugger-friendly mode.  ``REPRO_JOBS=N`` fans
    independent runs/trials across ``N`` processes via
    :mod:`repro.experiments.runner`; ``REPRO_JOBS=0`` or ``auto`` uses
    every available core.  Results are independent of the value: the job
    count changes wall-clock, never the trial decomposition or any seed.
    """
    raw = os.environ.get("REPRO_JOBS", "1").strip().lower()
    if raw in ("auto", "0"):
        return os.cpu_count() or 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer or 'auto', got {raw!r}") from None
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be >= 1 (or 0/'auto'), got {jobs!r}")
    return jobs
