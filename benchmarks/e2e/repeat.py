"""Does the benchmark agree with itself?  Run it repeatedly on one code.

Two checks, both against the bounds in ``BENCHMARK.json``; exit status is
non-zero on any violation::

    python3 benchmarks/e2e/repeat.py [--runs 10] [--sets 2] [--seed N] [--workload W ...]

1. **Exactness** — per workload, ``run.py --rounds 2`` twice on one seed,
   untraced and traced: every metric that is not host time (unit not in
   ``spec.HOST_UNITS``) must repeat bit for bit, and so must the
   simulated metrics of ``gates.json`` and ``attempted``/``failed``.
2. **Steadiness** — per workload and set, ``--runs`` untraced runs of the
   fixed size on consecutive seeds, under the ``run_seconds`` cap as a
   driver runs them (a capped run is a violation: lower
   ``workloads.ROUNDS``).  For each end-to-end metric the spread is the
   distance between the first and third quartile
   (``statistics.quantiles(values, n=4)``) over the median.  A spread
   above the metric's bound is a violation and makes any later
   comparison on that metric *unresolved* rather than unchanged; above a
   third of the bound it is flagged.  With ``--sets 2`` the second set's
   median must not be worse than the first's by more than the bound
   (``setup_s`` included; its spread is reported but not gated).  The
   gated simulated metrics are exact for a seed, so they are compared on
   one seed (``compare.py``); their spread *across* seeds is printed for
   whoever compares files of different seeds, and gates nothing here.

If ``sim_s_per_wall_s`` does not hold its bound, raise ``workloads.ROUNDS``
and ``run_seconds`` (more rounds to pool work over, more chances of an
undisturbed one) before loosening the bound, and never change the estimator
without the evidence in the README's table.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from e2e.spec import HOST_UNITS, load, load_gates, read_run  # noqa: E402


def run_once(workload: str, seed: int, trace: int, *extra: str) -> dict:
    """One ``run.py`` invocation; returns its last-line JSON with the
    run's record under ``"record"``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True,
    )
    run = read_run(proc.stdout)
    if proc.returncode != 0 or run is None:
        raise SystemExit(f"run.py failed on {workload} seed {seed} trace {trace}")
    record, line = run
    return {**line, "record": record}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    delta = second - first if better == "lower" else first - second
    return delta / abs(first)


def check_exact(workload: str, seed: int) -> list[str]:
    problems = []
    for trace in (0, 1):
        a, b = (run_once(workload, seed, trace, "--rounds", "2") for _ in range(2))
        for name, m in a["metrics"].items():
            if m["unit"] not in HOST_UNITS and m["value"] != b["metrics"][name]["value"]:
                problems.append(
                    f"{workload}: {name} does not repeat: {m['value']!r} vs "
                    f"{b['metrics'][name]['value']!r}"
                )
        if (a["attempted"], a["failed"]) != (b["attempted"], b["failed"]):
            problems.append(f"{workload}: attempted/failed do not repeat")
        if a["record"]["simulated"] != b["record"]["simulated"]:
            problems.append(f"{workload}: the gated simulated metrics do not repeat")
    return problems


def main(argv: list[str] | None = None) -> int:
    spec, gates = load(), load_gates()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    names = args.workload or [w["name"] for w in spec["workloads"]]

    problems: list[str] = []
    for workload in names:
        found = check_exact(workload, args.seed)
        print(f"{workload}: simulated metrics and counts "
              f"{'DO NOT repeat' if found else 'repeat exactly'}", flush=True)
        problems.extend(found)
        medians: list[dict[str, float]] = []
        for s in range(args.sets):
            runs = [
                run_once(workload, args.seed + s * args.runs + k, 0,
                         "--seconds", str(spec["run_seconds"]))
                for k in range(args.runs)
            ]
            failed = sum(r["failed"] for r in runs)
            if failed:
                problems.append(f"{workload} set {s}: {failed} operations failed")
            capped = sum(r["record"]["capped"] for r in runs)
            if capped:
                problems.append(f"{workload} set {s}: {capped} runs were cut short by the "
                                f"{spec['run_seconds']} s cap")
            medians.append({})
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                medians[s][m["name"]] = statistics.median(values)
                sp = spread(values)
                verdict = "ok"
                if sp > m["bound"]:
                    verdict = "UNRESOLVED: spread exceeds the bound"
                    if m["name"] != "setup_s":
                        problems.append(f"{workload} set {s}: {m['name']} spread {sp:.4f} "
                                        f"> bound {m['bound']}")
                elif sp > m["bound"] / 3.0:
                    verdict = "wide: above a third of the bound"
                print(f"{workload:<18} set {s} {m['name']:<18} median {medians[s][m['name']]:>12.6g} "
                      f"{m['unit']:<8} spread {sp:>7.4f} bound {m['bound']:<5} {verdict}",
                      flush=True)
            for g in gates["simulated"]:
                if workload in g["workloads"]:
                    values = [r["record"]["simulated"][g["name"]] for r in runs]
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    print(f"{workload:<18} set {s} {g['name']:<28} median "
                          f"{statistics.median(values):>10.6g} {g['unit']:<8} across seeds: "
                          f"IQR {q3 - q1:.4g} (exact on one seed; bound {g['bound']}"
                          f"{' absolute' if g['absolute'] else ''})", flush=True)
        for m in spec["end_to_end"]:
            for s in range(1, args.sets):
                w = worse_by(medians[0][m["name"]], medians[s][m["name"]], m["better"])
                if w > m["bound"]:
                    problems.append(f"{workload}: {m['name']} median of set {s} is worse than "
                                    f"set 0 by {w:.4f} > bound {m['bound']}")
    for p in problems:
        print(f"VIOLATION: {p}")
    print("repeatability:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
