"""Unified paper-vs-measured report across every figure.

``python -m repro.experiments.report`` runs every paper figure's full grid
(the paper's parameters) and prints a markdown table covering every
quantitative claim in the paper's evaluation.  Where the paper states a
number the verdict is the signed error against it (for Figs. 4 and 8's
means, also whether the paper's value lies inside the measured mean's
95 % bootstrap CI); where it states a shape the row names its criterion
(the tier-1 threshold where one exists) and whether the measured value
meets it.  The command exits 1 when any row ``FAILS``.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Callable, Sequence

import numpy as np

from repro.analysis.stats import bootstrap_mean_ci
from repro.experiments import fig4_election, fig5_throughput, fig6_rtt, fig7_loss, fig8_geo, grid

__all__ = ["ReportRow", "build_report", "main"]


@dataclasses.dataclass(slots=True, frozen=True)
class ReportRow:
    experiment: str
    quantity: str
    paper: str
    measured: str
    verdict: str  # signed error against the paper, or a checked criterion


def _pct(x: float) -> str:
    return f"{100.0 * x:.0f} %"


def _ms(x: float) -> str:
    return f"{x:.0f} ms"


def _s(x_ms: float) -> str:
    return f"{x_ms / 1000:.1f} s"


def _paper_row(experiment: str, quantity: str, paper: float, measured: float, fmt: Callable[[float], str]) -> ReportRow:
    """A row whose verdict is the signed relative error against the paper."""
    return ReportRow(experiment, quantity, fmt(paper), fmt(measured), f"{100.0 * (measured - paper) / paper:+.0f} %")


def _mean_row(experiment: str, quantity: str, paper: float, values: np.ndarray) -> ReportRow:
    """A paper-number row for a measured mean, which also prints the mean's
    95 % bootstrap CI and says whether the paper's value lies inside it."""
    row = _paper_row(experiment, quantity, paper, float(values.mean()), _ms)
    lo, hi = bootstrap_mean_ci(values)
    where = "inside" if lo <= paper <= hi else "outside"
    return dataclasses.replace(
        row,
        measured=f"{row.measured} (95 % CI {lo:.0f}–{hi:.0f})",
        verdict=f"{row.verdict}, paper {where} CI",
    )


def _holds(ok: bool, criterion: str) -> str:
    """A shape verdict: the criterion and whether the measurement meets it."""
    return f"{'holds' if ok else 'FAILS'}: {criterion}"


_SYSTEM_NAMES = {"raft": "Raft", "dynatune": "Dynatune"}
_METRIC_NAMES = {
    "detection": "mean detection",
    "ots": "mean OTS",
    "randomized_timeout": "mean randomizedTimeout",
    "election": "election time (§IV-E)",
}


def _election_rows(experiment: str, runs: Sequence[fig4_election.SystemElectionResult], paper: dict[str, dict[str, float]]) -> list[ReportRow]:
    """One row per number in a leader-kill figure's ``PAPER_NUMBERS``, plus
    the Dynatune-vs-Raft reduction of detection and OTS."""
    suffix = " (geo)" if runs[0].placement else ""
    rows: list[ReportRow] = []
    for metric, label in _METRIC_NAMES.items():
        if metric not in paper["raft"]:
            continue
        for system, name in _SYSTEM_NAMES.items():
            values = getattr(grid.find(runs, system=system), f"{metric}_ms")
            rows.append(_mean_row(experiment, f"{name} {label}{suffix}", paper[system][metric], values))
        if metric in ("detection", "ots"):
            want = 1.0 - paper["dynatune"][metric] / paper["raft"][metric]
            rows.append(_paper_row(experiment, f"{label.removeprefix('mean ')} reduction{suffix}", want, fig4_election.reduction(runs, metric), _pct))
    return rows


def _fig5_rows(runs: Sequence[fig5_throughput.SystemThroughputResult]) -> list[ReportRow]:
    raft, dyn = (grid.find(runs, system=s) for s in ("raft", "dynatune"))
    return [
        ReportRow("Fig.5", "Raft peak throughput", "13678 req/s", f"{raft.peak_rps:.0f} req/s", "calibrated"),
        ReportRow("Fig.5", "Dynatune peak throughput", "12800 req/s", f"{dyn.peak_rps:.0f} req/s", "calibrated"),
        ReportRow("Fig.5", "peak gap", "6.4 %", f"{100 * fig5_throughput.peak_gap(runs):.1f} %", "calibrated overhead factor"),
    ]


def _fig6_rows(runs: Sequence[fig6_rtt.SystemRttResult], dwell_ms: float) -> list[ReportRow]:
    dyn, raft, low = (grid.find(runs, system=s, pattern="gradual") for s in ("dynatune", "raft", "raft-low"))
    dyn_b, raft_b, low_b = (grid.find(runs, system=s, pattern="radical") for s in ("dynatune", "raft", "raft-low"))
    track = np.nanmedian(dyn.kth_randomized_timeout_ms / np.where(dyn.rtt_ms > 0, dyn.rtt_ms, np.nan))
    spike_ok = dyn_b.false_detections > 0 and dyn_b.unnecessary_elections == 0 and dyn_b.ots_total_ms == 0.0
    return [
        ReportRow("Fig.6a", "Dynatune randTO tracks RTT", "follows RTT", f"median randTO/RTT = {track:.1f}", _holds(track < 4.0, "median < 4")),
        ReportRow("Fig.6a", "Dynatune OTS", "none", _s(dyn.ots_total_ms), _holds(dyn.ots_total_ms == 0.0, "OTS = 0")),
        _paper_row("Fig.6a", "Raft median randTO (flat)", 1700.0, float(np.nanmedian(raft.kth_randomized_timeout_ms)), _ms),
        ReportRow("Fig.6a", "Raft OTS", "none", _s(raft.ots_total_ms), _holds(raft.ots_total_ms == 0.0, "OTS = 0")),
        ReportRow("Fig.6a", "Raft-Low OTS episodes at high RTT", "15 s … ~10 min", f"{_s(low.ots_total_ms)} in {len(low.ots_intervals)} intervals, {low.unnecessary_elections} elections", _holds(low.unnecessary_elections > 0 and low.ots_total_ms > 0.0, "elections > 0, OTS > 0")),
        ReportRow("Fig.6b", "Dynatune spike: false detection, no OTS", "pre-vote aborts", f"{dyn_b.false_detections} detections, {dyn_b.unnecessary_elections} elections, OTS {_s(dyn_b.ots_total_ms)}", _holds(spike_ok, "detections > 0, elections = 0, OTS = 0")),
        ReportRow("Fig.6b", "Raft spike", "stable", f"OTS {_s(raft_b.ots_total_ms)}", _holds(raft_b.ots_total_ms == 0.0, "OTS = 0")),
        ReportRow("Fig.6b", "Raft-Low spike", "repeated elections, OTS for spike", f"OTS {_s(low_b.ots_total_ms)}, {low_b.unnecessary_elections} elections", _holds(low_b.unnecessary_elections > 0 and low_b.ots_total_ms > 0.5 * dwell_ms, f"elections > 0, OTS > half the {_s(dwell_ms)} spike")),
    ]


def _fig7_rows(runs: Sequence[fig7_loss.LossRunResult]) -> list[ReportRow]:
    rows: list[ReportRow] = []
    for n in dict.fromkeys(r.n_nodes for r in runs):
        dyn, fix = (grid.find(runs, system=s, n_nodes=n) for s in ("dynatune", "fix-k"))
        rising, peak, end = dyn.h_legs()
        dyn_cpu, fix_cpu = dyn.leader_cpu.mean(), fix.leader_cpu.mean()
        elections = (dyn.unnecessary_elections, fix.unnecessary_elections)
        rows += [
            ReportRow("Fig.7a", f"N={n} Dynatune h tracks loss", "h falls as loss rises, recovers", f"h rising {rising:.0f} ms → peak {peak:.0f} ms → end {end:.0f} ms", f"{_holds(peak < 0.45 * rising, 'peak < 0.45 × rising')}; {_holds(end >= 0.9 * rising, 'end ≥ 0.9 × rising')}"),
            ReportRow("Fig.7b", f"N={n} leader CPU Fix-K vs Dynatune", "Fix-K ≫ Dynatune", f"{fix_cpu:.1f} % vs {dyn_cpu:.1f} %", _holds(fix_cpu > 2.0 * dyn_cpu, "Fix-K > 2 × Dynatune")),
            ReportRow("§IV-C2", f"N={n} unnecessary elections", "0 / 0", "{} / {}".format(*elections), _holds(elections == (0, 0), "both 0")),
        ]
    return rows


def build_report() -> list[ReportRow]:
    """Run every figure's grid and return the report rows."""
    return [
        *_election_rows("Fig.4", grid.run(fig4_election.GRID), fig4_election.PAPER_NUMBERS),
        *_fig5_rows(grid.run(fig5_throughput.GRID)),
        *_fig6_rows(grid.run(fig6_rtt.GRID), fig6_rtt.GRID.full.dwell_ms),
        *_fig7_rows(grid.run(fig7_loss.GRID)),
        *_election_rows("Fig.8", grid.run(fig8_geo.GRID), fig8_geo.PAPER_NUMBERS),
    ]


def render_markdown(rows: list[ReportRow]) -> str:
    out = [
        "## Paper vs. measured",
        "",
        "| Experiment | Quantity | Paper | Measured | Verdict |",
        "|---|---|---|---|---|",
    ]
    for r in rows:
        out.append(
            f"| {r.experiment} | {r.quantity} | {r.paper} | {r.measured} | {r.verdict} |"
        )
    return "\n".join(out)


def main() -> int:
    """Print the report; exit 1 naming each row whose verdict ``FAILS``."""
    rows = build_report()
    print(render_markdown(rows))
    failed = [r for r in rows if "FAILS" in r.verdict]
    for r in failed:
        print(f"FAILS: {r.experiment} {r.quantity}: {r.verdict}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
