"""The benchmark's one command.

Per workload (what ``BENCHMARK.json`` names as the command)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs the workload's fixed number of rounds (``workloads.ROUNDS``; ``--rounds
R`` overrides it) on seeds derived from ``N``, checks the outputs, prints
every metric by name with its unit, its full record on one line and, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The size is fixed so that every simulated metric and count
is a pure function of the seed; ``--seconds S`` is only a cap — no round is
started that would overrun it, and a run it cut short says so (``capped``).
``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace
1`` replays every round a second time with spans recorded (``spans.py``),
asserts the two simulate identically, and reports the per-layer metrics.
Exit status is non-zero when a check fails.

Without ``--workload`` every workload runs in its own fresh single-threaded
subprocess (``REPRO_JOBS=1``, ``PYTHONHASHSEED=0``), untraced then traced,
and ``--out FILE`` gets one compact JSON with both metric sets.  ``--smoke``
is one tiny round of everything, in-process (CI).
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

CHILD_ENV = {"REPRO_JOBS": "1", "PYTHONHASHSEED": "0"}
#: Whoever starts the measuring interpreter leaves its clock reading here,
#: so that set-up time covers that interpreter's own start.
T0_ENV = "E2E_T0"
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in CHILD_ENV.items()):
    # One thread, one hash seed: start over in the pinned environment.
    os.execve(
        sys.executable,
        [sys.executable, *sys.argv],
        {**os.environ, **CHILD_ENV, T0_ENV: repr(perf_counter())},
    )

_T0 = float(os.environ.pop(T0_ENV, 0.0)) or perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(_HERE))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"{__file__}: no src/repro under {ROOT}: nothing to benchmark")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(_HERE)]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy  # noqa: E402

from e2e import metrics, spans, spec as spec_file, workloads  # noqa: E402
from repro.experiments.runner import derive_trial_seed  # noqa: E402

#: Interpreter start to program imported — the part of set-up paid once.
IMPORT_S = perf_counter() - _T0

#: What the record line (and so ``--out``) keeps of a run besides the
#: metrics of its last line.
RECORD_KEYS = ("rounds", "capped", "attempted", "failed", "problems", "simulated", "import_s",
               "round_body_s", "round_work", "sim_s_per_wall_s_median")

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def measure(
    workload: str,
    seed: int,
    *,
    trace: bool,
    rounds: int | None = None,
    seconds: float | None = None,
    smoke: bool = False,
    chrome: str | None = None,
) -> dict:
    """Run ``rounds`` rounds of one workload (default: its fixed size) and
    reduce them to a result record.

    ``seconds`` caps the whole process, imports included: no round starts
    that would overrun it."""
    wanted = rounds or workloads.ROUNDS[workload]
    untraced: list[workloads.Round] = []
    traced: list[workloads.Round] = []
    tracer = spans.Tracer(keep_raw=chrome is not None)
    problems: list[str] = []
    longest = 0.0
    for i in range(wanted):
        if seconds is not None and i >= 1 and perf_counter() - _T0 + longest > seconds:
            break
        t0 = perf_counter()
        round_seed = derive_trial_seed(seed, i)
        untraced.append(workloads.run_round(workload, round_seed, spans.NullTracer(), smoke=smoke))
        if trace:
            one = spans.Tracer(keep_raw=chrome is not None and i == 0)
            with spans.installed(one):
                traced.append(workloads.run_round(workload, round_seed, one, smoke=smoke))
            tracer.merge(one)
            if traced[i].simulated() != untraced[i].simulated():
                problems.append(f"round {i}: traced and untraced runs simulate differently")
        longest = max(longest, perf_counter() - t0)

    total = workloads.pool(untraced)
    problems.extend(total.problems)
    result = {
        "workload": workload,
        "seed": seed,
        "rounds": len(untraced),
        # Cut short by --seconds: the simulated metrics pool fewer seeds
        # than the fixed size and are not comparable exactly.
        "capped": len(untraced) < wanted,
        "problems": problems,
        "attempted": max(total.attempted, 1),
        "failed": total.failed,
        # Both always come from the untraced rounds.
        "end_to_end": metrics.end_to_end(untraced, IMPORT_S),
        "simulated": metrics.simulated(untraced),
        # Diagnostics: the once-per-process part of set-up, every round's
        # timed wall and work (events; simulated seconds on fuzz_mix) and
        # the plain median of the rounds' rates.
        "import_s": round(IMPORT_S, 4),
        "round_body_s": [round(r.body_s, 4) for r in untraced],
        "round_work": [metrics.work(r) for r in untraced],
        "sim_s_per_wall_s_median": round(
            statistics.median(r.sim_s / r.body_s for r in untraced), 3
        ),
    }
    if trace:
        result["per_layer"] = metrics.per_layer(workload, untraced, traced, tracer)
        result["span_table"] = tracer.table()
        body = tracer.total_s(spans.BODY)
        covered = sum(row[3] for row in result["span_table"])
        if abs(covered - body) > 0.01 * body:
            problems.append(f"span self times cover {covered:.4f}s of a {body:.4f}s body")
        if chrome is not None:
            tracer.write_chrome_trace(chrome)
    return result


def report(result: dict, spec: dict, kind: str) -> dict:
    """Print one metric set of a result by name and unit, check it against
    ``BENCHMARK.json``, and return the contract's last-line JSON."""
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    values = result[kind]
    problems = list(result["problems"])
    if set(values) != set(wanted):
        problems.append(
            f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(set(wanted) - set(values))}, extra {sorted(set(values) - set(wanted))}"
        )
    problems.extend(f"bad metric name {n!r}" for n in wanted if not NAME.match(n))
    problems.extend(
        f"{n} is not a finite number: {v!r}"
        for n, v in {**values, **result["simulated"]}.items()
        if not isinstance(v, (int, float)) or v != v or abs(v) == float("inf")
    )
    print(
        f"== {result['workload']}  {kind}  seed {result['seed']}  {result['rounds']} rounds"
        f"{' (CAPPED by --seconds)' if result['capped'] else ''}  "
        f"attempted {result['attempted']}  failed {result['failed']}"
    )
    for name in sorted(values):
        print(f"{name:<40} {values[name]:>16.6g} {wanted.get(name, '?')}")
    if kind == "per_layer":
        print(f"{'span':<24} {'calls':>10} {'total s':>10} {'self s':>10} {'self share':>10}")
        for name, calls, total_s, self_s, share in result["span_table"]:
            print(f"{name:<24} {calls:>10d} {total_s:>10.4f} {self_s:>10.4f} {share:>10.4f}")
    else:
        print(f"(plain median of the rounds: {result['sim_s_per_wall_s_median']:.6g} sim-s/s)")
        # The simulated end-to-end metrics gates.json bounds (zero where
        # this workload has nothing to report); the traced run lists them
        # among the per-layer names.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in result["simulated"].items():
            print(f"{name:<40} {value:>16.6g} {units[name]}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": wanted.get(n, "?")} for n in values},
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in its own subprocess; both metric sets in one file."""
    out: dict = {"env": environment(), "seed": args.seed, "workloads": {}}
    status = 0
    for w in spec["workloads"]:
        record = out["workloads"].setdefault(w["name"], {})
        for trace in ((0, 1) if args.trace is None else (args.trace,)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                   "--seed", str(args.seed), "--trace", str(trace)]
            for flag in ("rounds", "seconds"):
                if getattr(args, flag) is not None:
                    cmd += [f"--{flag}", str(getattr(args, flag))]
            proc = subprocess.run(
                cmd, env={**os.environ, **CHILD_ENV, T0_ENV: repr(perf_counter())},
                stdout=subprocess.PIPE, text=True,
            )
            kind = "per_layer" if trace else "end_to_end"
            run = spec_file.read_run(proc.stdout)
            if run is None:
                # Died before its result: keep going, record that it did.
                sys.stdout.write(proc.stdout)
                print(f"CHECK FAILED: {w['name']} --trace {trace} exited "
                      f"{proc.returncode} without a result", file=sys.stderr)
                record[f"{kind}_run"] = {"returncode": proc.returncode}
                status = 1
                continue
            status |= int(proc.returncode != 0)
            print("\n".join(proc.stdout.splitlines()[:-2]))
            detail, line = run
            # Six significant digits; a per-layer metric absent here read 0.
            record[kind] = {
                n: float(f"{m['value']:.6g}")
                for n, m in line["metrics"].items()
                if m["value"] or not trace
            }
            simulated = detail.pop("simulated")  # the traced run lists them per layer
            if not trace:
                record["simulated"] = {n: float(f"{v:.6g}") for n, v in simulated.items()}
            record[f"{kind}_run"] = detail
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return status


def run_smoke(args: argparse.Namespace, spec: dict) -> int:
    """One tiny round of every workload, untraced and traced, in-process."""
    out: dict = {}
    for w in spec["workloads"]:
        result = measure(w["name"], args.seed, trace=True, rounds=1, smoke=True)
        out[w["name"]] = {kind: report(result, spec, kind) for kind in ("end_to_end", "per_layer")}
    print(json.dumps(out))
    return int(not all(line["correct"] for lines in out.values() for line in lines.values()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="cap on one run's host time (default: none)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--rounds", type=int, default=None,
                        help="round count (default: the workload's fixed size)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="(all workloads) write both metric sets here")
    parser.add_argument("--chrome", help="(--trace 1) write round 0's spans as a Chrome trace")
    args = parser.parse_args(argv)
    spec = spec_file.load()
    if args.smoke:
        return run_smoke(args, spec)
    if args.workload is None:
        return run_all(args, spec)
    result = measure(
        args.workload, args.seed, trace=bool(args.trace), rounds=args.rounds,
        seconds=args.seconds, chrome=args.chrome,
    )
    line = report(result, spec, "per_layer" if args.trace else "end_to_end")
    print(spec_file.RECORD + json.dumps({k: result[k] for k in RECORD_KEYS}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
