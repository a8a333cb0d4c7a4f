"""Parallel multi-trial experiment runner.

The kernel fast path makes a single run cheap; this module makes *suites*
cheap by fanning independent runs across cores.  Two facts make that safe:

* every run builds its own :class:`~repro.sim.loop.EventLoop`,
  :class:`~repro.sim.rng.RngRegistry` and cluster from an explicit seed —
  there is no shared mutable state between runs; and
* per-task seeds are *derived*, never sequential: a SplitMix64 mix of
  ``(base_seed, trial_index)`` decorrelates the underlying bit streams
  and is stable across platforms and job counts.

Determinism contract: the decomposition into tasks (and every derived
seed) depends only on the experiment configuration — ``REPRO_JOBS`` moves
work between processes but cannot change a single number in the results.
``run_tasks(fn, args, jobs=1)`` and ``run_tasks(fn, args, jobs=8)``
return identical lists.

Worker functions must be module-level (picklable) and their arguments and
results picklable; all the figure experiment configs/results are plain
dataclasses over numpy arrays, which qualify.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Sequence, TypeVar

from repro.experiments.common import get_jobs

__all__ = ["derive_trial_seed", "run_tasks"]

T = TypeVar("T")

_MASK64 = (1 << 64) - 1


def derive_trial_seed(base_seed: int, trial: int) -> int:
    """Deterministic, decorrelated seed for trial ``trial`` of ``base_seed``.

    SplitMix64 finalizer over the combined key.  Adjacent ``(seed, trial)``
    pairs land far apart in the output space, so per-trial RNG registries
    do not share leading draws the way ``base_seed + trial`` would.
    The result is clamped to 63 bits (positive) for numpy's SeedSequence.
    """
    z = ((base_seed * 0x9E3779B97F4A7C15) + trial + 0x632BE59BD9B4E019) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z & 0x7FFFFFFFFFFFFFFF


def _invoke(pair: tuple[Callable[[Any], T], Any]) -> T:
    fn, arg = pair
    return fn(arg)


def run_tasks(
    fn: Callable[[Any], T],
    args: Sequence[Any],
    *,
    jobs: int | None = None,
) -> list[T]:
    """Run ``fn`` over ``args``, fanning across processes when asked to.

    Args:
        fn: module-level function of one (picklable) argument.
        args: one entry per task; results come back in the same order.
        jobs: worker processes; ``None`` reads ``REPRO_JOBS``.  ``1`` (the
            default) runs sequentially in-process.

    Results are bit-identical for every ``jobs`` value: tasks are
    self-contained simulations keyed by explicit seeds, and ordering is
    restored by ``Pool.map``.
    """
    if jobs is None:
        jobs = get_jobs()
    n = len(args)
    if jobs <= 1 or n <= 1:
        return [fn(a) for a in args]
    # fork shares the imported modules with the workers (cheap start, and
    # sys.path already set up); fall back to the platform default where
    # fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    workers = min(jobs, n, os.cpu_count() or 1)
    with ctx.Pool(processes=workers) as pool:
        return pool.map(_invoke, [(fn, a) for a in args])

