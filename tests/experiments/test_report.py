"""Report plumbing: rendering, row verdicts and the top-level exports."""

import numpy as np
import pytest

from repro.analysis.cdf import empirical_cdf
from repro.analysis.stats import bootstrap_mean_ci, summarize
from repro.experiments import fig4_election, fig7_loss, grid, report
from repro.experiments.report import ReportRow, _election_rows, _fig7_rows, render_markdown


def test_render_markdown_table():
    rows = [
        ReportRow("Fig.4", "detection", "1205 ms", "1178 ms", "match"),
        ReportRow("Fig.5", "peak", "13678", "13749", "calibrated"),
    ]
    md = render_markdown(rows)
    assert "| Fig.4 | detection | 1205 ms | 1178 ms | match |" in md
    assert md.startswith("## Paper vs. measured\n")
    assert md.count("\n") == 5


def test_election_rows_quote_the_paper_and_state_the_error():
    runs = grid.run(fig4_election.GRID, fig4_election.Fig4Config(n_failures=2))
    rows = {
        r.quantity: r
        for r in _election_rows("Fig.4", runs, fig4_election.PAPER_NUMBERS)
    }
    assert len(rows) == 10  # eight paper means, two reductions
    ots = rows["Dynatune mean OTS"]
    measured = grid.find(runs, system="dynatune").mean_ots_ms
    assert ots.paper == "797 ms"
    assert ots.measured.startswith(f"{measured:.0f} ms (95 % CI ")
    assert ots.verdict.startswith(f"{100.0 * (measured - 797.0) / 797.0:+.0f} %, paper ")
    reduction = rows["OTS reduction"]
    assert reduction.paper == "45 %"
    paper_reduction = 1.0 - 797.0 / 1449.0
    assert reduction.verdict == (
        f"{100.0 * (fig4_election.reduction(runs, 'ots') - paper_reduction) / paper_reduction:+.0f} %"
    )


def _election_run(system: str, detection_ms: list[float]) -> fig4_election.SystemElectionResult:
    d = np.array(detection_ms)
    return fig4_election.SystemElectionResult(
        system=system,
        episodes=(),
        detection_ms=d,
        ots_ms=d,
        election_ms=d,
        randomized_timeout_ms=d,
        detection_summary=summarize(d),
        ots_summary=summarize(d),
        detection_cdf=empirical_cdf(d),
        ots_cdf=empirical_cdf(d),
        placement={},
    )


def test_election_mean_rows_give_the_ci_and_whether_the_paper_is_inside():
    raft = _election_run("raft", [1100.0, 1300.0] * 50)  # mean 1200, CI ∋ 1205
    dyn = _election_run("dynatune", [300.0] * 100)  # CI [300, 300] ∌ 237
    paper = {"raft": {"detection": 1205.0}, "dynatune": {"detection": 237.0}}
    raft_row, dyn_row, reduction = _election_rows("Fig.4", [raft, dyn], paper)
    lo, hi = bootstrap_mean_ci(raft.detection_ms)
    assert lo < 1205.0 < hi
    assert raft_row.measured == f"1200 ms (95 % CI {lo:.0f}–{hi:.0f})"
    assert raft_row.verdict == "-0 %, paper inside CI"
    assert dyn_row.measured == "300 ms (95 % CI 300–300)"
    assert dyn_row.verdict == "+27 %, paper outside CI"
    assert "CI" not in reduction.measured + reduction.verdict


@pytest.mark.parametrize("verdict, code", [("holds: OTS = 0", 0), ("FAILS: OTS = 0", 1)])
def test_main_exits_nonzero_when_a_row_fails(monkeypatch, capsys, verdict, code):
    rows = [
        ReportRow("Fig.4", "detection", "1205 ms", "1178 ms", "-2 %"),
        ReportRow("Fig.6a", "Dynatune OTS", "none", "0.0 s", verdict),
    ]
    monkeypatch.setattr(report, "build_report", lambda: rows)
    assert report.main() == code
    out, err = capsys.readouterr()
    assert out.strip() == render_markdown(rows)
    assert ("Dynatune OTS" in err) == bool(code)


def _loss_run(system: str, h_ms: list[float], cpu: float) -> fig7_loss.LossRunResult:
    n = len(h_ms)
    return fig7_loss.LossRunResult(
        system=system,
        n_nodes=5,
        h_times_ms=5_000.0 * np.arange(n),
        h_ms=np.array(h_ms),
        loss_rate=np.array([0.0, 0.0, 0.15, 0.30, 0.15, 0.0, 0.0]),
        cpu_times_ms=5_000.0 * np.arange(n),
        leader_cpu=np.full(n, cpu),
        follower_cpu=np.full(n, 0.1),
        unnecessary_elections=0,
        leader="n1",
    )


@pytest.mark.parametrize("end, recovered", [(67.0, False), (195.0, True)])
def test_fig7_row_checks_recovery_against_the_rising_leg(end, recovered):
    # h is 200 ms on the way up.  Averaging both loss-free dwells hid a
    # run whose h had not relaxed back by the end.
    dyn = _loss_run("dynatune", [200.0, 200.0, 90.0, 37.0, 50.0, 60.0, end], 2.4)
    fix = _loss_run("fix-k", [20.0] * 7, 6.3)
    h_row, cpu_row, elections_row = _fig7_rows([dyn, fix])
    assert h_row.measured == f"h rising 200 ms → peak 37 ms → end {end:.0f} ms"
    assert h_row.verdict == (
        "holds: peak < 0.45 × rising; "
        f"{'holds' if recovered else 'FAILS'}: end ≥ 0.9 × rising"
    )
    assert cpu_row.verdict == "holds: Fix-K > 2 × Dynatune"
    assert elections_row.verdict == "holds: both 0"


def test_top_level_package_exports():
    import repro

    assert repro.__version__
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None or name == "__version__"
