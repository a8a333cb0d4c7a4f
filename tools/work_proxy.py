"""Deterministic work proxy: Python+C calls in one round of the benchmark.

    python -m tools.work_proxy [--workload W]... [--seed N] [--round I] [--smoke]

Wall time on a shared host wanders more than most changes move it; the
number of calls a round makes does not.  One whole round (set-up included)
of each workload runs in-process through the benchmark's own
``workloads.run_round`` under ``sys.setprofile``: the same command (a
workload's count includes whatever the ones before it left unimported) in
a parent checkout and in this one is an A/B no noisy neighbour can blur.
A count compares two versions of one program; it is not a speed.
"""

from __future__ import annotations

import argparse
import os
import sys

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # Set order feeds call order: start over with the hash seed pinned.
    env = {**os.environ, "PYTHONHASHSEED": "0", "REPRO_JOBS": "1"}
    os.execve(sys.executable, [sys.executable, "-m", "tools.work_proxy", *sys.argv[1:]], env)


def main(argv: list[str] | None = None) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmarks")]
    from e2e import spans, workloads
    from repro.experiments.runner import derive_trial_seed

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--round", type=int, default=0, help="index within the seed")
    parser.add_argument("--smoke", action="store_true", help="the tiny CI-sized round")
    args = parser.parse_args(argv)
    calls = 0

    def hook(frame: object, event: str, arg: object) -> None:
        nonlocal calls
        calls += event == "call" or event == "c_call"

    seed = derive_trial_seed(args.seed, args.round)
    for workload in args.workload or list(workloads.ROUNDS):
        calls = 0
        sys.setprofile(hook)
        try:
            rnd = workloads.run_round(workload, seed, spans.NullTracer(), smoke=args.smoke)
        finally:
            sys.setprofile(None)
        print(
            f"{workload:<18} calls={calls:>9} calls_per_sim_s={calls / rnd.sim_s:>11.1f} "
            f"attempted={rnd.attempted} failed={rnd.failed} sim_s={rnd.sim_s:g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
