"""DynatuneConfig validation."""

import dataclasses
import math

import pytest

from repro.dynatune.config import (
    DEFAULT_ELECTION_TIMEOUT_MS,
    DEFAULT_HEARTBEAT_INTERVAL_MS,
    H_FLOOR_MS,
    DynatuneConfig,
)

#: Options that had no caller outside tests and are now constants or fixed
#: behaviour: ``H_FLOOR_MS``, the UDP channel, the sample-gap reset.
REMOVED_FIELDS = ("h_floor_ms", "heartbeat_channel", "reset_on_sample_gap")


def test_paper_defaults():
    cfg = DynatuneConfig()
    assert cfg.safety_factor == 2.0
    assert cfg.arrival_probability == 0.999
    assert cfg.min_list_size == 10
    assert cfg.max_list_size == 1000
    assert DEFAULT_ELECTION_TIMEOUT_MS == 1000.0
    assert DEFAULT_HEARTBEAT_INTERVAL_MS == 100.0
    assert H_FLOOR_MS == 1.0
    assert cfg.fixed_k is None
    assert cfg.fallback_on_timeout is True


@pytest.mark.parametrize(
    "kwargs",
    [
        {"safety_factor": -1.0},
        {"arrival_probability": 0.0},
        {"arrival_probability": 1.0},
        {"min_list_size": 0},
        {"max_list_size": 5, "min_list_size": 10},
        {"arrival_probability": -0.5},
        {"fixed_k": 0},
        {"fixed_k": -3},
        {"safety_factor": math.nan},
        {"safety_factor": math.inf},  # an infinite Et never fires
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        DynatuneConfig(**kwargs)


def test_removed_fields_are_rejected():
    assert [f.name for f in dataclasses.fields(DynatuneConfig)] == [
        "safety_factor",
        "arrival_probability",
        "min_list_size",
        "max_list_size",
        "fixed_k",
        "fallback_on_timeout",
    ]
    for name in REMOVED_FIELDS:
        with pytest.raises(TypeError):
            DynatuneConfig(**{name: 1})


def test_fix_k_variant():
    cfg = DynatuneConfig(fixed_k=10)
    assert cfg.fixed_k == 10


def test_frozen():
    cfg = DynatuneConfig()
    with pytest.raises(Exception):
        cfg.safety_factor = 3.0  # type: ignore[misc]
