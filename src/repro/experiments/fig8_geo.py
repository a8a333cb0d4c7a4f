"""Fig. 8 + §IV-D: the real geo-distributed (AWS) experiment.

Protocol: five ``m5.large``-class servers in Tokyo, London, California,
Sydney and São Paulo; the §IV-B1 leader-kill loop repeated on that
topology.  Clocks are NTP-synchronised, so the paper flags its measured
times as carrying tens of milliseconds of error.

Paper means: detection 1137 → 213 ms (−81 %), OTS 1718 → 1145 ms (−33 %).

Reproduction: Fig. 4's experiment with ``geo=True`` — the AWS RTT matrix
of :mod:`repro.net.topology` with proportional WAN jitter, and a
:class:`~repro.net.topology.ClockModel` applying per-node NTP offsets
(σ = 15 ms) *to the measurement extraction only* — the simulator still
runs on exact time, exactly as physics does.
"""

from __future__ import annotations

from repro.experiments.common import get_scale
from repro.experiments.fig4_election import NTP_OFFSET_SIGMA_MS, Fig4Config, Fig4Result, run

__all__ = ["quick", "main"]

PAPER_NUMBERS = {
    "raft": {"detection": 1137.0, "ots": 1718.0},
    "dynatune": {"detection": 213.0, "ots": 1145.0},
}


def quick() -> Fig4Config:
    """Fig. 8's configuration at the ``REPRO_SCALE`` kill count; the WAN
    round trips get longer warm-up, pause and settle windows."""
    return Fig4Config(
        n_failures=get_scale().fig4_failures,
        warmup_ms=10_000.0,
        sleep_ms=8_000.0,
        settle_ms=10_000.0,
        geo=True,
    )


def main() -> Fig4Result:  # pragma: no cover - exercised via __main__
    result = run(quick())
    print(
        f"# Fig. 8 — geo-replicated (AWS) election performance, "
        f"{result.config.n_failures} failures, NTP σ={NTP_OFFSET_SIGMA_MS} ms"
    )
    any_sys = next(iter(result.systems.values()))
    print("placement:", ", ".join(f"{n}={r}" for n, r in any_sys.placement.items()))
    for name, sysres in result.systems.items():
        paper = PAPER_NUMBERS[name]
        print(
            f"{name:<10} detection {sysres.mean_detection_ms:>6.0f} ms "
            f"(paper {paper['detection']:.0f})   OTS {sysres.mean_ots_ms:>6.0f} ms "
            f"(paper {paper['ots']:.0f})"
        )
    print(
        f"reduction vs Raft: detection {100 * result.reduction('detection'):.0f} % "
        f"(paper 81 %), OTS {100 * result.reduction('ots'):.0f} % (paper 33 %)"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
