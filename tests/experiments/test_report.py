"""Report plumbing: rendering and the top-level exports."""

from repro.experiments import fig4_election
from repro.experiments.report import ReportRow, _election_rows, render_markdown


def test_render_markdown_table():
    rows = [
        ReportRow("Fig.4", "detection", "1205 ms", "1178 ms", "match"),
        ReportRow("Fig.5", "peak", "13678", "13749", "calibrated"),
    ]
    md = render_markdown(rows, "quick")
    assert "| Fig.4 | detection | 1205 ms | 1178 ms | match |" in md
    assert md.startswith("## Paper vs. measured (scale: quick)")
    assert md.count("\n") == 5


def test_election_rows_quote_the_paper_and_state_the_error():
    result = fig4_election.run(fig4_election.Fig4Config(n_failures=2))
    rows = {
        r.quantity: r
        for r in _election_rows("Fig.4", result, fig4_election.PAPER_NUMBERS)
    }
    assert len(rows) == 10  # eight paper means, two reductions
    ots = rows["Dynatune mean OTS"]
    measured = result.systems["dynatune"].mean_ots_ms
    assert (ots.paper, ots.measured) == ("797 ms", f"{measured:.0f} ms")
    assert ots.verdict == f"{100.0 * (measured - 797.0) / 797.0:+.0f} %"
    reduction = rows["OTS reduction"]
    assert reduction.paper == "45 %"
    paper_reduction = 1.0 - 797.0 / 1449.0
    assert reduction.verdict == (
        f"{100.0 * (result.reduction('ots') - paper_reduction) / paper_reduction:+.0f} %"
    )


def test_top_level_package_exports():
    import repro

    assert repro.__version__
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None or name == "__version__"
