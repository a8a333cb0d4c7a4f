"""Report plumbing: rendering and the top-level exports."""

from repro.experiments.report import ReportRow, render_markdown


def test_render_markdown_table():
    rows = [
        ReportRow("Fig.4", "detection", "1205 ms", "1178 ms", "match"),
        ReportRow("Fig.5", "peak", "13678", "13749", "calibrated"),
    ]
    md = render_markdown(rows, "quick")
    assert "| Fig.4 | detection | 1205 ms | 1178 ms | match |" in md
    assert md.startswith("## Paper vs. measured (scale: quick)")
    assert md.count("\n") == 5


def test_top_level_package_exports():
    import repro

    assert repro.__version__
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None or name == "__version__"
