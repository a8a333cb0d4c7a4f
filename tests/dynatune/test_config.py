"""DynatuneConfig validation."""

import pytest

from repro.dynatune.config import (
    DEFAULT_ELECTION_TIMEOUT_MS,
    DEFAULT_HEARTBEAT_INTERVAL_MS,
    DynatuneConfig,
)


def test_paper_defaults():
    cfg = DynatuneConfig()
    assert cfg.safety_factor == 2.0
    assert cfg.arrival_probability == 0.999
    assert cfg.min_list_size == 10
    assert cfg.max_list_size == 1000
    assert DEFAULT_ELECTION_TIMEOUT_MS == 1000.0
    assert DEFAULT_HEARTBEAT_INTERVAL_MS == 100.0
    assert cfg.heartbeat_channel == "udp"
    assert cfg.fixed_k is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"safety_factor": -1.0},
        {"arrival_probability": 0.0},
        {"arrival_probability": 1.0},
        {"min_list_size": 0},
        {"max_list_size": 5, "min_list_size": 10},
        {"h_floor_ms": 0.0},
        {"fixed_k": 0},
        {"heartbeat_channel": "carrier-pigeon"},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        DynatuneConfig(**kwargs)


def test_fix_k_variant():
    cfg = DynatuneConfig(fixed_k=10)
    assert cfg.fixed_k == 10


def test_frozen():
    cfg = DynatuneConfig()
    with pytest.raises(Exception):
        cfg.safety_factor = 3.0  # type: ignore[misc]
