"""ScenarioGen properties: validity, round-trip fidelity, determinism."""

import dataclasses
import math

import pytest

from repro.fuzz.generator import (
    CLOCK_DRIFT_MAX,
    CLOCK_OFFSET_RANGE_MS,
    GRAY_LOSS_RANGE,
    GRAY_WINDOW_RANGE_MS,
    MIN_STEPS,
    GenConfig,
    ScenarioGen,
)
from repro.scenarios.scenario import Scenario

#: The satellite property sweep: 50 generator seeds.
SEEDS = list(range(1, 51))


@pytest.fixture(scope="module")
def gen() -> ScenarioGen:
    return ScenarioGen(GenConfig())


@pytest.mark.parametrize("seed", SEEDS)
def test_roundtrip_byte_identical_and_valid(gen, seed):
    scenario = gen.generate(seed)
    blob = scenario.to_json()
    back = Scenario.from_json(blob)
    assert back.to_json() == blob
    assert back.to_dict() == scenario.to_dict()
    # Valid against the cluster the campaign builds (constructors already
    # re-validated every step during from_dict).
    scenario.validate_against(set(gen.config.node_names))


def test_generation_is_deterministic(gen):
    for seed in (3, 17, 44):
        assert gen.generate(seed).to_json() == gen.generate(seed).to_json()


def test_seeds_produce_distinct_scenarios(gen):
    blobs = {gen.generate(seed).to_json() for seed in SEEDS}
    # Step-count and parameter draws make collisions astronomically
    # unlikely; near-total distinctness is the point of seeding.
    assert len(blobs) > 45


def test_step_counts_and_times_respect_config():
    cfg = GenConfig(max_steps=5, horizon_ms=10_000.0)
    gen = ScenarioGen(cfg)
    for seed in SEEDS[:20]:
        scenario = gen.generate(seed)
        assert len(scenario.steps) >= MIN_STEPS
        for step in scenario.steps:
            # Primary steps land inside the horizon; a paired heal/recover
            # may trail its fault by up to 8 s.
            assert 0.0 <= step.at_ms <= cfg.horizon_ms + 8_000.0
            # JSON-friendly built-ins only (numpy scalars would break
            # byte-identical serialization across platforms).
            assert type(step.at_ms) is float


def test_generated_values_are_builtin_types(gen):
    for seed in SEEDS[:10]:
        for step in gen.generate(seed).steps:
            for field in dataclasses.fields(step):
                value = getattr(step, field.name)
                if isinstance(value, float):
                    assert type(value) is float, (seed, step.kind, field.name)


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n_nodes=2)
    with pytest.raises(ValueError):
        GenConfig(max_steps=MIN_STEPS - 1)
    with pytest.raises(ValueError):
        GenConfig(p_gray=1.5)
    # A NaN or infinite horizon would overflow the uniform draws.
    for horizon in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="horizon_ms"):
            GenConfig(horizon_ms=horizon)


# --------------------------------------------------------------------- #
# gray-fault / clock-skew patterns
# --------------------------------------------------------------------- #


def _kinds(scenario):
    return [s["kind"] for s in scenario.to_dict()["steps"]]


def test_gray_and_skew_knobs_default_to_zero_draws(gen):
    """The zero-draw guarantee: with the knobs at their 0.0 defaults no
    gray/skew step ever appears AND the primary timeline is untouched —
    turning a knob on only *appends* pattern steps after the primaries
    every pre-existing seed already pins."""
    hot = ScenarioGen(GenConfig(p_gray=1.0, p_clock_skew=1.0))
    for seed in SEEDS[:15]:
        base = gen.generate(seed)
        assert not {"block_link", "gray_link", "set_clock"} & set(_kinds(base))
        spiced = hot.generate(seed)
        base_steps = base.to_dict()["steps"]
        assert spiced.to_dict()["steps"][: len(base_steps)] == base_steps


def test_gray_faults_are_present_and_well_shaped():
    cfg = GenConfig(p_gray=1.0)
    gen = ScenarioGen(cfg)
    split_seen = False
    for seed in SEEDS:
        steps = gen.generate(seed).to_dict()["steps"]
        gray = [s for s in steps if s["kind"] in ("block_link", "gray_link")]
        assert gray, f"seed {seed} drew no gray fault at p_gray=1.0"
        lo, hi = GRAY_WINDOW_RANGE_MS
        for s in gray:
            assert lo <= s["duration_ms"] <= hi
            if s["kind"] == "gray_link":
                g_lo, g_hi = GRAY_LOSS_RANGE
                # A gray link trickles — never loss 1.0 (that is a block).
                assert g_lo <= s["loss"] <= g_hi < 1.0
        # A gray split fences two concrete nodes with 2*(n-2) directed-
        # both blocks sharing one window.
        if len(gray) == 2 * (cfg.n_nodes - 2):
            fenced = {s["a"] for s in gray}
            assert len(fenced) == 2
            assert all(s["direction"] == "both" for s in gray)
            assert len({(s["at_ms"], s["duration_ms"]) for s in gray}) == 1
            split_seen = True
    assert split_seen, "no seed in the sweep produced a gray split"


def test_clock_skew_pattern_magnitudes_and_repair():
    cfg = GenConfig(p_clock_skew=1.0)
    gen = ScenarioGen(cfg)
    repaired = False
    for seed in SEEDS[:25]:
        steps = gen.generate(seed).to_dict()["steps"]
        skews = [s for s in steps if s["kind"] == "set_clock"]
        assert skews
        o_lo, o_hi = CLOCK_OFFSET_RANGE_MS
        by_node = {}
        for s in skews:
            if s["offset_ms"] == 0.0 and s["drift"] == 0.0:
                # Repair: snaps an earlier skew on the same node back.
                assert s["at_ms"] > by_node[s["node"]]
                repaired = True
            else:
                assert o_lo <= abs(s["offset_ms"]) <= o_hi
                assert abs(s["drift"]) <= CLOCK_DRIFT_MAX
                by_node[s["node"]] = s["at_ms"]
    assert repaired, "no clock-skew repair seen across the sweep"


def test_gray_and_skew_scenarios_roundtrip():
    gen = ScenarioGen(GenConfig(p_gray=1.0, p_clock_skew=1.0))
    for seed in SEEDS[:10]:
        scenario = gen.generate(seed)
        blob = scenario.to_json()
        assert Scenario.from_json(blob).to_json() == blob
