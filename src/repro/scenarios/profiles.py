"""The paper's §IV-C ``tc`` scripts, as scenarios.

Three builders reproduce the exact weather patterns of the evaluation,
each a :class:`~repro.scenarios.scenario.Scenario` of global
:class:`~repro.scenarios.steps.SetRtt` / :class:`~repro.scenarios.steps.
SetLoss` steps — so a figure's network script is JSON-able, traced
(``scenario_step``) and composable with any fault timeline:

* :func:`gradual_rtt_profile` — §IV-C1 pattern 1: RTT 50 → 200 → 50 ms in
  10 ms increments, one minute per value;
* :func:`radical_rtt_profile` — §IV-C1 pattern 2: 50 ms for one minute, step
  to 500 ms for one minute, back to 50 ms;
* :func:`loss_staircase_profile` — §IV-C2: loss 0 → 5 → 10 → 15 → 20 → 25 →
  30 → 25 → … → 0 %, three minutes per level, RTT pinned at 200 ms.

Steps mutate link parameters in place, exactly like ``tc qdisc change``:
packets already in flight keep the delay they sampled at send time.  The
profiles are the figures' fixed scripts, not members of the scenario
matrix: they are deliberately absent from
:data:`~repro.scenarios.library.SCENARIO_BUILDERS`.
"""

from __future__ import annotations

from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import SetLoss, SetRtt, Step
from repro.sim.clock import MINUTE

__all__ = ["gradual_rtt_profile", "radical_rtt_profile", "loss_staircase_profile"]


#: The gradual pattern's RTT range and increment (ms).
GRADUAL_LOW_MS = 50.0
GRADUAL_HIGH_MS = 200.0
GRADUAL_STEP_MS = 10.0


def gradual_rtt_profile(*, dwell_ms: float = MINUTE, start_ms: float = 0.0) -> Scenario:
    """§IV-C1 gradual pattern: ``GRADUAL_LOW_MS`` → ``GRADUAL_HIGH_MS`` → low
    in ``GRADUAL_STEP_MS`` increments.

    Each RTT value is held for ``dwell_ms`` (one minute in the paper).  The
    descending leg does not repeat the peak value, matching "from 50 to
    200 ms and back to 50 ms".
    """
    values: list[float] = []
    v = GRADUAL_LOW_MS
    while v < GRADUAL_HIGH_MS:
        values.append(v)
        v += GRADUAL_STEP_MS
    values.append(GRADUAL_HIGH_MS)
    values.extend(reversed(values[:-1]))  # descend without repeating the peak
    return Scenario(
        "gradual_rtt",
        [
            SetRtt(at_ms=start_ms + i * dwell_ms, rtt_ms=val)
            for i, val in enumerate(values)
        ],
    )


def radical_rtt_profile(
    *,
    base_ms: float = 50.0,
    spike_ms: float = 500.0,
    dwell_ms: float = MINUTE,
    start_ms: float = 0.0,
) -> Scenario:
    """§IV-C1 radical pattern: base for one dwell, spike for one dwell, back."""
    return Scenario(
        "radical_rtt",
        [
            SetRtt(at_ms=start_ms, rtt_ms=base_ms),
            SetRtt(at_ms=start_ms + dwell_ms, rtt_ms=spike_ms),
            SetRtt(at_ms=start_ms + 2 * dwell_ms, rtt_ms=base_ms),
        ],
    )


def loss_staircase_profile(
    *,
    rtt_ms: float = 200.0,
    levels: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
    dwell_ms: float = 3 * MINUTE,
    start_ms: float = 0.0,
) -> Scenario:
    """§IV-C2 staircase: loss up the levels then back down, RTT pinned.

    The descending leg omits the peak (matching "increased ... to 30 %, and
    then decreased it back to 25 %, ..., 0 %").
    """
    seq = list(levels) + list(reversed(levels[:-1]))
    steps: list[Step] = [SetRtt(at_ms=start_ms, rtt_ms=rtt_ms)]
    steps += [SetLoss(at_ms=start_ms + i * dwell_ms, loss=p) for i, p in enumerate(seq)]
    return Scenario("loss_staircase", steps)
