"""Shared experiment infrastructure: system registry and worker count.

The paper evaluates four systems (§IV); they differ *only* in the tuning
policy attached to each node:

* ``raft`` — etcd defaults: Et = 1000 ms, h = 100 ms, heartbeats over TCP;
* ``raft-low`` — the §IV-C1 baseline with parameters at 1/10 of default;
* ``dynatune`` — the paper's system (s = 2, x = 0.999, minList 10,
  maxList 1000, UDP heartbeats);
* ``fix-k`` — Dynatune with ``h``-tuning disabled, K pinned to 10
  (§IV-C2's comparison variant).

Each figure's config defaults are the paper's parameters (1000 failures,
3-minute loss dwells, 65-server clusters); its grid's ``--smoke`` base
shrinks repetition counts and dwells, never the mechanism.
``REPRO_JOBS`` (:func:`get_jobs`) is the one environment knob, and it
changes wall-clock only.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.dynatune.config import DynatuneConfig
from repro.dynatune.policy import DynatunePolicy, StaticPolicy, TuningPolicy

__all__ = ["SYSTEMS", "get_jobs", "make_policy_factory"]

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
