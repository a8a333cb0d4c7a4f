"""Tier-1 smoke test of the end-to-end benchmark: one tiny round of every
workload, untraced and traced, through the same code path as the real
command; the gates; the comparison."""

from __future__ import annotations

import copy
import dataclasses
import json
import os

from e2e import compare, run, spec, workloads


def _smoke(capsys, seed: int = 1) -> tuple[int, dict]:
    status = run.main(["--smoke", "--seed", str(seed)])
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_smoke_prints_the_benchmark_json_metrics_and_repeats(capsys):
    benchmark = spec.load()
    (status_a, a), (status_b, b) = _smoke(capsys), _smoke(capsys)
    assert status_a == status_b == 0
    assert list(a) == [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.ROUNDS) == set(workloads.WORKLOADS)
    for name in a:
        for kind in ("end_to_end", "per_layer"):
            first, second = a[name][kind], b[name][kind]
            assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
            assert set(first["metrics"]) == {m["name"] for m in benchmark[kind]}
            for m in benchmark[kind]:
                got = first["metrics"][m["name"]]
                assert got["unit"] == m["unit"]
                if m["unit"] not in spec.HOST_UNITS:
                    # simulated time or a count: a pure function of the seed
                    assert got["value"] == second["metrics"][m["name"]]["value"], m["name"]


def test_unresolvable_kill_flips_the_exit_code(monkeypatch, capsys):
    # A one-node "cluster" has nobody to succeed its paused leader.
    fn, stable = workloads._SPECS["failover_stable"]
    lonely = dataclasses.replace(stable, n_nodes=1, baseline=False, kills=1)
    monkeypatch.setitem(workloads._SPECS, "failover_stable", (fn, lonely))
    status = run.main(["--workload", "failover_stable", "--rounds", "1", "--trace", "0"])
    record, line = spec.read_run(capsys.readouterr().out)
    assert status != 0
    assert not line["correct"] and line["failed"] == 1
    assert record["simulated"]["failed_frac"] == 1.0 and not record["capped"]
    assert spec.read_run("died\nbefore its result") is None


def test_a_workload_that_dies_is_recorded_and_the_rest_still_run(monkeypatch, tmp_path, capsys):
    import subprocess

    def killed(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, -9, stdout="== half a table\nsetup_s  0.3 s\n")

    monkeypatch.setattr(run.subprocess, "run", killed)
    out = tmp_path / "out.json"
    assert run.main(["--out", str(out), "--trace", "0"]) == 1
    capsys.readouterr()
    written = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    assert sorted(written) == sorted(workloads.WORKLOADS)
    assert all(w == {"end_to_end_run": {"returncode": -9}} for w in written.values())


def test_gates_cover_every_name_once():
    benchmark, gates = spec.load(), spec.load_gates()
    names = [g["name"] for g in gates["simulated"]]
    names += [n for group in gates["moves"] for n in group["metrics"]]
    assert sorted(names) == sorted(m["name"] for m in benchmark["per_layer"])
    gated = {m["name"] for m in benchmark["end_to_end"]} | {g["name"] for g in gates["simulated"]}
    assert len(gated) == 15  # ISSUE 11's fourteen and served_frac
    known = set(workloads.WORKLOADS)
    assert all(set(g["workloads"]) <= known and 0 < g["bound"] for g in gates["simulated"])
    for group in gates["moves"]:
        assert set(group["moves"]) <= gated and set(group["on"]) <= known


def test_compare_gates_the_simulated_metrics(tmp_path, capsys):
    point = os.path.join(os.path.dirname(__file__), "results", "pr11.json")
    with open(point, encoding="utf-8") as fh:
        base = json.load(fh)
    assert compare.main([point, point]) == 0
    slower_failover = copy.deepcopy(base)
    slower_failover["workloads"]["failover_weather"]["simulated"]["ots_ms_mean"] *= 1.06
    one_more_heartbeat = copy.deepcopy(base)
    one_more_heartbeat["workloads"]["scale_n51"]["per_layer"]["raft.heartbeats_per_sim_s"] += 1
    no_result = copy.deepcopy(base)
    no_result["workloads"]["fuzz_mix"] = {"end_to_end_run": {"returncode": -9}}
    for name, planted in (("ots", slower_failover), ("count", one_more_heartbeat),
                          ("dead", no_result)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(planted), encoding="utf-8")
        assert compare.main([point, str(path)]) == 1, name
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "!=" in out and "NO RESULT" in out
