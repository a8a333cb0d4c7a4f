"""Deterministic work proxy: calls and collector passes in one round of the benchmark.

    python -m tools.work_proxy [--workload W]... [--seed N] [--round I] [--smoke]

Wall time on a shared host wanders more than most changes move it; the
number of calls a round makes does not.  One whole round (set-up included)
of each workload runs in-process through the benchmark's own
``workloads.run_round`` under ``sys.setprofile``: the same command (a
workload's count includes whatever the ones before it left unimported) in
a parent checkout and in this one is an A/B no noisy neighbour can blur.
A count compares two versions of one program; it is not a speed.

Calls are not collector time.  The cyclic collector runs when tracked
objects pile up, whatever code allocates them, and its passes are charged
to no call; a change that stops keeping per-operation objects alive can
add calls and still run faster.  So each round runs a second time without
the profile hook (whose frame objects would feed the collector), after a
full collection, and ``gc=g0/g1/g2`` counts that pass's collections of
each generation through ``gc.callbacks`` (the benchmark's own
``gc.collect()`` before each timed body counts as a generation-2 pass).

A count depends on the interpreter and on numpy as well as on the seed:
it includes numpy's Python-level frames, and a numpy routine that is one
C call in one release may be several in another.  So each line ends with
``py=<major.minor.micro> np=<numpy version>``: compare counts only across
equal ``py=`` and ``np=`` fields.
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import sys

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # Set order feeds call order: start over with the hash seed pinned.
    env = {**os.environ, "PYTHONHASHSEED": "0", "REPRO_JOBS": "1"}
    os.execve(sys.executable, [sys.executable, "-m", "tools.work_proxy", *sys.argv[1:]], env)


def main(argv: list[str] | None = None) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmarks")]
    import numpy

    from e2e import spans, workloads
    from repro.experiments.runner import derive_trial_seed

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--round", type=int, default=0, help="index within the seed")
    parser.add_argument("--smoke", action="store_true", help="the tiny CI-sized round")
    args = parser.parse_args(argv)
    calls = 0
    passes = [0, 0, 0]

    def hook(frame: object, event: str, arg: object) -> None:
        nonlocal calls
        calls += event == "call" or event == "c_call"

    def count_pass(phase: str, info: dict[str, int]) -> None:
        if phase == "stop":
            passes[info["generation"]] += 1

    seed = derive_trial_seed(args.seed, args.round)
    status = 0
    for workload in args.workload or list(workloads.ROUNDS):
        calls = 0
        sys.setprofile(hook)
        try:
            rnd = workloads.run_round(workload, seed, spans.NullTracer(), smoke=args.smoke)
        finally:
            sys.setprofile(None)
        gc.collect()
        passes[:] = [0, 0, 0]
        gc.callbacks.append(count_pass)
        try:
            again = workloads.run_round(workload, seed, spans.NullTracer(), smoke=args.smoke)
        finally:
            gc.callbacks.remove(count_pass)
        if again.simulated() != rnd.simulated():
            print(f"{workload}: the unprofiled pass simulated something else", file=sys.stderr)
            status = 1
        print(
            f"{workload:<18} calls={calls:>9} calls_per_sim_s={calls / rnd.sim_s:>11.1f} "
            f"gc={passes[0]}/{passes[1]}/{passes[2]} "
            f"attempted={rnd.attempted} failed={rnd.failed} sim_s={rnd.sim_s:g} "
            f"py={platform.python_version()} np={numpy.__version__}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
