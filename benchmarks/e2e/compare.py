"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric): base, new, the ratio new/base
*with its base*, the bound and a verdict.  The rows are ``BENCHMARK.json``'s
end-to-end metrics on every workload, then the simulated end-to-end metrics
of ``gates.json`` on the workloads it lists for each.  Beneath, per workload,
the per-layer metrics that moved, each with the end-to-end metric it is
expected to move — so a claimed saving can be located in the layer that
claimed it.

Simulated metrics and counts are exact for a seed and a round count: when
both files ran the same seed and the same uncapped rounds, any difference
in one is a behaviour change, not noise, and is marked ``!=``.  A single
pair of files cannot tell a small host-time difference from noise;
``repeat.py`` measures the spread, and a difference inside it is
*unresolved*, not *unchanged*.

Exit status is 1 when a gated metric is worse than its bound allows, a
workload of the base has no result in the new file, or — same seed and
rounds — any simulated metric or count differs (a change that means to
alter behaviour quotes this table instead of passing it).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from e2e.spec import HOST_UNITS, load, load_gates  # noqa: E402

#: Per-layer host-time rows are listed when they moved by more than this.
MOVED = 0.05


def worse_by(base: float, new: float, better: str, absolute: bool) -> float:
    """How much worse ``new`` is than ``base``: a difference, or a share of
    ``base`` (infinite off a zero base)."""
    delta = new - base if better == "lower" else base - new
    if absolute or delta == 0.0:
        return delta
    return delta / abs(base) if base else float("inf") * delta


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    spec, gates = load(), load_gates()
    with open(args[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args[1], encoding="utf-8") as fh:
        new = json.load(fh)
    print(f"base {args[0]}: seed {base['seed']} env {base['env']}")
    print(f"new  {args[1]}: seed {new['seed']} env {new['env']}")

    def exact(workload: str, kind: str) -> bool:
        """Did both files run this workload on the same seeds, in full?"""
        a = base["workloads"][workload].get(f"{kind}_run", {})
        b = new["workloads"][workload].get(f"{kind}_run", {})
        return (
            base["seed"] == new["seed"]
            and a.get("rounds") is not None
            and a.get("rounds") == b.get("rounds")
            and not a.get("capped")
            and not b.get("capped")
        )

    failures = 0
    print(f"\n{'workload':<18} {'metric':<28} {'base':>12} {'new':>12} {'new/base':>9} "
          f"{'bound':>10}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        b = base["workloads"].get(w, {})
        n = new["workloads"].get(w, {})
        if "end_to_end" not in b:
            continue
        if "end_to_end" not in n:
            print(f"{w:<18} NO RESULT in {args[1]}")
            failures += 1
            continue
        same = exact(w, "end_to_end")
        if not same:
            print(f"{w:<18} (seeds or rounds differ, or a run was capped: simulated "
                  "metrics are samples here, not exact)")
        rows = [(m, b["end_to_end"], n["end_to_end"], False) for m in spec["end_to_end"]]
        rows += [
            (g, b["simulated"], n["simulated"], g["absolute"])
            for g in gates["simulated"]
            if w in g["workloads"]
        ]
        for m, vb_all, vn_all, absolute in rows:
            vb, vn = vb_all[m["name"]], vn_all[m["name"]]
            worse = worse_by(vb, vn, m["better"], absolute)
            if worse > m["bound"]:
                verdict = "REGRESSION"
                failures += 1
            elif same and vb != vn and m["unit"] not in HOST_UNITS:
                verdict = "!= (behaviour changed; within bound)"
                failures += 1
            elif worse < -m["bound"]:
                verdict = "better (confirm with paired runs)"
            else:
                verdict = "within bound"
            ratio = f"{vn / vb:>9.4f}" if vb else f"{'-':>9}"
            bound = f"{m['bound']}{' abs' if absolute else ''}"
            print(f"{w:<18} {m['name']:<28} {vb:>12.6g} {vn:>12.6g} {ratio} "
                  f"{bound:>10}  {verdict}")

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    moves = {
        name: (", ".join(group["moves"]) or "nothing") + (
            f" on {', '.join(group['on'])}" if group["on"] else "")
        for group in gates["moves"]
        for name in group["metrics"]
    }
    for w in (w["name"] for w in spec["workloads"]):
        b = base["workloads"].get(w, {}).get("per_layer")
        n = new["workloads"].get(w, {}).get("per_layer")
        if not b or not n:
            continue
        same = exact(w, "per_layer")
        rows = []
        for name in sorted(moves):
            vb, vn = b.get(name, 0.0), n.get(name, 0.0)
            if vb == vn:
                continue
            host = units[name] in HOST_UNITS
            ratio = vn / vb if vb else float("inf")
            if host and abs(ratio - 1.0) < MOVED:
                continue
            if not host and same:
                failures += 1
            mark = "moved" if host else ("!=" if same else "differs")
            rows.append(f"  {name:<40} {vb:>12.6g} {vn:>12.6g} {ratio:>9.4f} (base {vb:.6g} "
                        f"{units[name]})  {mark}; should move {moves[name]}")
        print(f"\n{w}: per-layer metrics that moved "
              f"(host time by > {MOVED:.0%}; simulated/count by anything)")
        print("\n".join(rows) if rows else "  none")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
