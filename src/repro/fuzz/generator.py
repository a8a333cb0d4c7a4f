"""Seeded random scenario generation.

:class:`ScenarioGen` composes random typed steps into *valid*
:class:`~repro.scenarios.scenario.Scenario` timelines: every generated
scenario passes the step constructors' validation, references only nodes
the cluster has (plus the ``"@leader"`` selector), and round-trips
byte-identically through ``to_dict``/``from_dict`` — the fuzz campaign's
workers regenerate scenarios from seeds alone.

Two biases aim the randomness at the regimes where adaptive election
parameters break:

* **conflict windows** — step times cluster around *other* steps' times,
  offset by fractions of the election timeout, so faults land exactly
  where detection/election races live (BALLAST's observation: adversarial
  schedules, not uniform noise, break learned timeouts);
* **wreckage with recovery** — a generated partition usually (not always)
  gets a later heal and a crash usually gets a recover, so most timelines
  return to a configuration where liveness — and therefore a non-trivial
  client history — is possible, while a tail of scenarios still probes
  permanent damage.

All drawn numbers are rounded to fixed decimal grids and converted to
built-in Python types, keeping JSON round-trips exact and diffs readable.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import (
    LEADER_SELECTOR,
    AddNode,
    BlockLink,
    Churn,
    Crash,
    DiskFault,
    Flap,
    GrayLink,
    Heal,
    Partition,
    Pause,
    Recover,
    RemoveNode,
    Repeat,
    SetClock,
    SetLoss,
    SetRtt,
    Step,
)

__all__ = ["GenConfig", "ScenarioGen"]

#: Step kinds and their relative draw weights.
_KIND_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("partition", 0.22),
    ("flap", 0.13),
    ("set_rtt", 0.13),
    ("set_loss", 0.10),
    ("pause", 0.16),
    ("crash", 0.10),
    ("churn", 0.08),
    ("heal", 0.08),
)


#: Fewest primary steps a scenario draws (``GenConfig.max_steps`` is the
#: most; paired heal/recover follow-ups may exceed it).
MIN_STEPS = 2
#: Election-timeout scale of the conflict-window offsets.
ET_MS = 1_000.0
#: Probability a step time is drawn near an existing step (offset by a
#: fraction of ``ET_MS``) instead of uniformly over the horizon.
CONFLICT_BIAS = 0.5
#: Probability a node reference is ``"@leader"``.
P_LEADER_SELECTOR = 0.25
#: Probability a partition/crash gets a heal/recover (and a membership add
#: a later remove, a clock skew a later snap-back).
P_REPAIR = 0.8
#: Parameter ranges of the primary step kinds.
RTT_RANGE_MS = (10.0, 400.0)
LOSS_RANGE = (0.0, 0.25)
PAUSE_RANGE_MS = (100.0, 3_500.0)
FLAP_DOWN_RANGE_MS = (50.0, 1_500.0)
#: Crash→recover gap of the compaction-pressure lagger.
LAG_RANGE_MS = (6_000.0, 15_000.0)
#: Add→remove gap of the membership pair: long enough for the join to
#: commit before the removal races the rest of the timeline.
MEMBERSHIP_GAP_RANGE_MS = (4_000.0, 12_000.0)
#: Loss rate of a generated gray degradation (below 1.0: a gray link
#: trickles; a loss of 1.0 is a block) and the duration of a gray or
#: one-way window.
GRAY_LOSS_RANGE = (0.6, 0.98)
GRAY_WINDOW_RANGE_MS = (2_000.0, 12_000.0)
#: Absolute clock step (its sign is drawn) and drift-rate bound of the
#: clock-skew pattern: small enough that un-injected campaigns stay inside
#: the lease drift margin — skew shifts timings without making correct
#: protocols fail.
CLOCK_OFFSET_RANGE_MS = (10.0, 100.0)
CLOCK_DRIFT_MAX = 0.02


@dataclasses.dataclass(slots=True, frozen=True)
class GenConfig:
    """Knobs of the scenario generator.

    Attributes:
        n_nodes: cluster size the scenarios target (nodes ``n1..nN``).
        horizon_ms: steps are placed in ``[0, horizon_ms]``.
        max_steps: most primary steps a scenario draws (at least
            ``MIN_STEPS``).
        p_compaction_lag: probability a scenario additionally carries a
            *compaction-pressure* pattern — one concrete node crashed
            early and recovered only after a long lag window
            (``LAG_RANGE_MS``), so a cluster running with small
            compaction thresholds is forced to compact past the lagger's
            match index and serve it a snapshot on return.
        p_membership: probability a scenario additionally carries a
            *membership-churn* pattern — one fresh node joins
            (learner → voter) and, usually, one original member is removed
            afterwards, so the faults above land across live
            reconfigurations.
        p_disk_fault: probability a scenario additionally carries a
            *disk-fault* pattern — one or two :class:`~repro.scenarios.
            steps.DiskFault` windows turning on crash-point / torn-tail /
            bit-flip / IO-error / stall injection for a stretch of the
            run (trials on ideal storage skip them).
        p_gray: probability a scenario additionally carries a *gray
            fault* — an asymmetric link impairment (a one-direction
            :class:`~repro.scenarios.steps.BlockLink`, or a
            :class:`~repro.scenarios.steps.GrayLink` with heavy loss and
            delay) over a finite window.
        p_clock_skew: probability a scenario additionally carries a
            *clock-skew* pattern — :class:`~repro.scenarios.steps.
            SetClock` steps giving one or two nodes an offset and drift,
            usually snapped back to true later.

    Each optional pattern's probability at ``0.0`` (the default) draws
    **nothing** from the stream, so every seed's scenario stays
    byte-identical to the one it drew before the pattern existed.
    """

    n_nodes: int = 5
    horizon_ms: float = 25_000.0
    max_steps: int = 8
    p_compaction_lag: float = 0.0
    p_membership: float = 0.0
    p_disk_fault: float = 0.0
    p_gray: float = 0.0
    p_clock_skew: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes < 3:
            raise ValueError(f"fuzz scenarios need >= 3 nodes, got {self.n_nodes!r}")
        if self.max_steps < MIN_STEPS:
            raise ValueError(f"max_steps must be >= {MIN_STEPS}, got {self.max_steps!r}")
        # An infinite horizon overflows the uniform draws; NaN fails every
        # comparison, hence the negated form.
        if not (0.0 < self.horizon_ms < math.inf):
            raise ValueError(f"horizon_ms must be finite and > 0, got {self.horizon_ms!r}")
        for name in (
            "p_compaction_lag",
            "p_membership",
            "p_disk_fault",
            "p_gray",
            "p_clock_skew",
        ):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(f"n{i}" for i in range(1, self.n_nodes + 1))


def _grid(value: float, decimals: int = 1) -> float:
    """Snap a draw to a fixed decimal grid as a plain Python float."""
    return float(round(float(value), decimals))


class ScenarioGen:
    """Deterministic scenario factory: ``generate(seed)`` is a pure function."""

    def __init__(self, config: GenConfig | None = None) -> None:
        self.config = config if config is not None else GenConfig()

    # ------------------------------------------------------------------ #
    # draws
    # ------------------------------------------------------------------ #

    def _draw_time(self, rng: np.random.Generator, anchors: list[float]) -> float:
        cfg = self.config
        if anchors and float(rng.random()) < CONFLICT_BIAS:
            # Conflict window: land within ~[-Et/2, +1.5 Et) of an existing
            # step — where its detection/election race is still in flight.
            anchor = anchors[int(rng.integers(len(anchors)))]
            t = anchor + float(rng.uniform(-0.5, 1.5)) * ET_MS
        else:
            t = float(rng.uniform(0.0, cfg.horizon_ms))
        return _grid(min(max(t, 0.0), cfg.horizon_ms))

    def _draw_node(self, rng: np.random.Generator) -> str:
        cfg = self.config
        if float(rng.random()) < P_LEADER_SELECTOR:
            return LEADER_SELECTOR
        return cfg.node_names[int(rng.integers(cfg.n_nodes))]

    def _draw_pair(self, rng: np.random.Generator) -> tuple[str, str]:
        names = self.config.node_names
        i, j = rng.choice(len(names), size=2, replace=False)
        a, b = names[int(i)], names[int(j)]
        if float(rng.random()) < P_LEADER_SELECTOR:
            a = LEADER_SELECTOR
        return a, b

    def _maybe_repeat(
        self, rng: np.random.Generator, *, min_every_ms: float, p: float = 0.35
    ) -> Repeat | None:
        if float(rng.random()) >= p:
            return None
        every = _grid(min_every_ms * float(rng.uniform(1.2, 4.0)))
        times = int(rng.integers(2, 6))
        return Repeat(every_ms=every, times=times)

    # ------------------------------------------------------------------ #
    # step constructors
    # ------------------------------------------------------------------ #

    def _gen_partition(
        self, rng: np.random.Generator, t: float, steps: list[Step]
    ) -> None:
        cfg = self.config
        names = list(cfg.node_names)
        # Island 1..n-1 victims, listed; the rest (and the clients) stay
        # in the implicit group, so the majority side usually keeps its
        # client-facing connectivity.
        k = int(rng.integers(1, cfg.n_nodes))
        victims = [names[int(i)] for i in rng.choice(cfg.n_nodes, size=k, replace=False)]
        if float(rng.random()) < P_LEADER_SELECTOR:
            victims[0] = LEADER_SELECTOR
        if k >= 2 and float(rng.random()) < 0.4:
            cut = int(rng.integers(1, k))
            groups: tuple[tuple[str, ...], ...] = (
                tuple(victims[:cut]),
                tuple(victims[cut:]),
            )
        else:
            groups = (tuple(victims),)
        steps.append(Partition(at_ms=t, groups=groups))
        if float(rng.random()) < P_REPAIR:
            heal_at = _grid(t + float(rng.uniform(500.0, 8_000.0)))
            steps.append(Heal(at_ms=heal_at))

    def _gen_crash(self, rng: np.random.Generator, t: float, steps: list[Step]) -> None:
        cfg = self.config
        node = self._draw_node(rng)
        steps.append(Crash(at_ms=t, node=node))
        if float(rng.random()) < P_REPAIR:
            back_at = _grid(t + float(rng.uniform(500.0, 6_000.0)))
            # "@leader" at recovery time rarely resolves to the crashed
            # node; recover a concrete node instead so the repair lands.
            target = (
                node
                if node != LEADER_SELECTOR
                else cfg.node_names[int(rng.integers(cfg.n_nodes))]
            )
            steps.append(Recover(at_ms=back_at, node=target))

    def _gen_step(self, rng: np.random.Generator, t: float, steps: list[Step]) -> None:
        cfg = self.config
        draw = float(rng.random())
        acc = 0.0
        kind = _KIND_WEIGHTS[-1][0]
        total = sum(w for _, w in _KIND_WEIGHTS)
        for name, weight in _KIND_WEIGHTS:
            acc += weight / total
            if draw < acc:
                kind = name
                break
        if kind == "partition":
            self._gen_partition(rng, t, steps)
        elif kind == "flap":
            a, b = self._draw_pair(rng)
            lo, hi = FLAP_DOWN_RANGE_MS
            down = _grid(float(rng.uniform(lo, hi)))
            steps.append(
                Flap(
                    at_ms=t,
                    a=a,
                    b=b,
                    down_ms=down,
                    repeat=self._maybe_repeat(rng, min_every_ms=down + 50.0, p=0.5),
                )
            )
        elif kind == "set_rtt":
            lo, hi = RTT_RANGE_MS
            rtt = _grid(float(rng.uniform(lo, hi)))
            pair = self._draw_pair(rng) if float(rng.random()) < 0.5 else None
            steps.append(
                SetRtt(
                    at_ms=t,
                    rtt_ms=rtt,
                    pair=pair,
                    repeat=self._maybe_repeat(rng, min_every_ms=ET_MS, p=0.25),
                )
            )
        elif kind == "set_loss":
            lo, hi = LOSS_RANGE
            loss = float(round(float(rng.uniform(lo, hi)), 3))
            pair = self._draw_pair(rng) if float(rng.random()) < 0.5 else None
            steps.append(SetLoss(at_ms=t, loss=loss, pair=pair))
        elif kind == "pause":
            lo, hi = PAUSE_RANGE_MS
            duration = _grid(float(rng.uniform(lo, hi)))
            steps.append(
                Pause(
                    at_ms=t,
                    node=self._draw_node(rng),
                    duration_ms=duration,
                    repeat=self._maybe_repeat(rng, min_every_ms=duration + 100.0, p=0.3),
                )
            )
        elif kind == "crash":
            self._gen_crash(rng, t, steps)
        elif kind == "churn":
            names = list(cfg.node_names)
            size = int(rng.integers(2, cfg.n_nodes + 1))
            chosen = tuple(
                names[int(i)] for i in rng.choice(cfg.n_nodes, size=size, replace=False)
            )
            down = _grid(float(rng.uniform(300.0, 3_000.0)))
            fault = "crash" if float(rng.random()) < 0.5 else "pause"
            steps.append(
                Churn(
                    at_ms=t,
                    nodes=chosen,
                    down_ms=down,
                    fault=fault,
                    repeat=self._maybe_repeat(rng, min_every_ms=down + 200.0, p=0.7),
                )
            )
        else:  # heal
            steps.append(Heal(at_ms=t))

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def _gen_compaction_lag(self, rng: np.random.Generator, steps: list[Step]) -> None:
        """Compaction pressure: a concrete node crashes early and stays
        down across a long committed-history window, then recovers —
        under a small compaction threshold the leader must compact past
        its match index and the return is served via InstallSnapshot."""
        cfg = self.config
        node = cfg.node_names[int(rng.integers(cfg.n_nodes))]
        down_at = _grid(float(rng.uniform(0.0, cfg.horizon_ms * 0.3)))
        lo, hi = LAG_RANGE_MS
        back_at = _grid(down_at + float(rng.uniform(lo, hi)))
        steps.append(Crash(at_ms=down_at, node=node))
        steps.append(Recover(at_ms=back_at, node=node))

    def _gen_membership(self, rng: np.random.Generator, steps: list[Step]) -> None:
        """Membership churn: one fresh node joins (learner, caught up,
        auto-promoted) and — usually — one original member is removed a
        while later, pairing the add with a remove so the timeline ends
        near its starting size.  The joiner's name extends past the
        static name space (``n<N+1>``), so it never collides with a
        concrete fault target drawn elsewhere in the scenario."""
        cfg = self.config
        fresh = f"n{cfg.n_nodes + 1}"
        add_at = _grid(float(rng.uniform(0.0, cfg.horizon_ms * 0.4)))
        steps.append(AddNode(at_ms=add_at, node=fresh))
        if float(rng.random()) < P_REPAIR:
            lo, hi = MEMBERSHIP_GAP_RANGE_MS
            rem_at = _grid(add_at + float(rng.uniform(lo, hi)))
            victim = (
                LEADER_SELECTOR
                if float(rng.random()) < P_LEADER_SELECTOR
                else cfg.node_names[int(rng.integers(cfg.n_nodes))]
            )
            steps.append(RemoveNode(at_ms=rem_at, node=victim))

    def _gen_disk_fault(self, rng: np.random.Generator, steps: list[Step]) -> None:
        """Disk-fault windows: one or two nodes get fallible disks for a
        stretch of the run.  Crash-point probability dominates (it is the
        durability oracle's bread and butter); torn tails and bit flips
        ride along at lower rates, and an occasional stall/IO-error mixes
        fail-stop and freeze semantics into the same window."""
        cfg = self.config
        n_windows = int(rng.integers(1, 3))
        for _ in range(n_windows):
            node = cfg.node_names[int(rng.integers(cfg.n_nodes))]
            at = _grid(float(rng.uniform(0.0, cfg.horizon_ms * 0.7)))
            duration = _grid(float(rng.uniform(2_000.0, cfg.horizon_ms * 0.6)))
            steps.append(
                DiskFault(
                    at_ms=at,
                    node=node,
                    p_crash_point=float(round(float(rng.uniform(0.02, 0.25)), 3)),
                    p_io_error=float(round(float(rng.uniform(0.0, 0.03)), 3)),
                    p_stall=float(round(float(rng.uniform(0.0, 0.08)), 3)),
                    p_torn_tail=float(round(float(rng.uniform(0.0, 0.5)), 3)),
                    p_bitflip=float(round(float(rng.uniform(0.0, 0.05)), 3)),
                    duration_ms=duration,
                )
            )

    def _gen_gray_split(
        self, rng: np.random.Generator, at: float, duration: float, steps: list[Step]
    ) -> None:
        """Gray split: two concrete nodes lose every server↔server link to
        the rest of the cluster (both directions) while all client links
        stay perfect — the fenced pair cannot tell it has been cut off.
        When the fire-time leader lands inside the pair this is the
        stale-leader shape: the fenced leader keeps hearing one fresh
        follower while the shielded majority elects a rival and commits,
        which is exactly the window a broken lease check serves stale
        reads into."""
        cfg = self.config
        names = cfg.node_names
        i, j = rng.choice(cfg.n_nodes, size=2, replace=False)
        fenced = {names[int(i)], names[int(j)]}
        for inner in sorted(fenced):
            for outer in names:
                if outer in fenced:
                    continue
                steps.append(
                    BlockLink(
                        at_ms=at,
                        a=inner,
                        b=outer,
                        direction="both",
                        duration_ms=duration,
                    )
                )

    def _gen_gray_fault(self, rng: np.random.Generator, steps: list[Step]) -> None:
        """Asymmetric link faults: a one-direction block (can send, cannot
        hear) or a gray degradation (heavy loss + delay, still trickling)
        on one ordered pair, over a finite window — or, sometimes, a full
        gray split (see :meth:`_gen_gray_split`)."""
        cfg = self.config
        lo, hi = GRAY_WINDOW_RANGE_MS
        at = _grid(float(rng.uniform(0.0, cfg.horizon_ms * 0.7)))
        duration = _grid(float(rng.uniform(lo, hi)))
        if float(rng.random()) < 0.35:
            self._gen_gray_split(rng, at, duration, steps)
            return
        a, b = self._draw_pair(rng)
        direction = ("a_to_b", "b_to_a")[int(rng.integers(2))]
        if float(rng.random()) < 0.5:
            steps.append(
                BlockLink(
                    at_ms=at,
                    a=a,
                    b=b,
                    direction=direction,
                    duration_ms=duration,
                )
            )
        else:
            g_lo, g_hi = GRAY_LOSS_RANGE
            steps.append(
                GrayLink(
                    at_ms=at,
                    a=a,
                    b=b,
                    direction=direction,
                    loss=float(round(float(rng.uniform(g_lo, g_hi)), 3)),
                    one_way_ms=_grid(float(rng.uniform(20.0, 250.0))),
                    duration_ms=duration,
                )
            )

    def _gen_clock_skew(self, rng: np.random.Generator, steps: list[Step]) -> None:
        """Clock skew: one or two concrete nodes get an offset + drift,
        each usually snapped back to true before the horizon.  Magnitudes
        stay under the lease drift margin so skew alone never makes a
        correct protocol fail — it only moves the timings that planted
        clock bugs hide behind."""
        cfg = self.config
        n_victims = int(rng.integers(1, 3))
        picks = rng.choice(cfg.n_nodes, size=n_victims, replace=False)
        for i in picks:
            node = cfg.node_names[int(i)]
            at = _grid(float(rng.uniform(0.0, cfg.horizon_ms * 0.5)))
            o_lo, o_hi = CLOCK_OFFSET_RANGE_MS
            sign = 1.0 if float(rng.random()) < 0.5 else -1.0
            offset = _grid(sign * float(rng.uniform(o_lo, o_hi)))
            drift = float(
                round(float(rng.uniform(-CLOCK_DRIFT_MAX, CLOCK_DRIFT_MAX)), 4)
            )
            steps.append(SetClock(at_ms=at, node=node, offset_ms=offset, drift=drift))
            if float(rng.random()) < P_REPAIR:
                back_at = _grid(at + float(rng.uniform(2_000.0, 10_000.0)))
                steps.append(SetClock(at_ms=back_at, node=node))

    def generate(self, seed: int) -> Scenario:
        """Generate the scenario for ``seed`` (pure: same seed, same bytes)."""
        cfg = self.config
        rng = np.random.default_rng(seed)
        n_primary = int(rng.integers(MIN_STEPS, cfg.max_steps + 1))
        steps: list[Step] = []
        anchors: list[float] = []
        for _ in range(n_primary):
            t = self._draw_time(rng, anchors)
            anchors.append(t)
            self._gen_step(rng, t, steps)
        # Guarded so the default (0.0) consumes no draw: every pre-existing
        # seed keeps producing exactly the same scenario bytes.
        if cfg.p_compaction_lag > 0.0 and float(rng.random()) < cfg.p_compaction_lag:
            self._gen_compaction_lag(rng, steps)
        if cfg.p_membership > 0.0 and float(rng.random()) < cfg.p_membership:
            self._gen_membership(rng, steps)
        if cfg.p_disk_fault > 0.0 and float(rng.random()) < cfg.p_disk_fault:
            self._gen_disk_fault(rng, steps)
        if cfg.p_gray > 0.0 and float(rng.random()) < cfg.p_gray:
            self._gen_gray_fault(rng, steps)
        if cfg.p_clock_skew > 0.0 and float(rng.random()) < cfg.p_clock_skew:
            self._gen_clock_skew(rng, steps)
        scenario = Scenario(
            f"fuzz-{seed}",
            steps,
            description=f"generated by ScenarioGen(seed={seed})",
        )
        scenario.validate_against(set(cfg.node_names))
        return scenario
