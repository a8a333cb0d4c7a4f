"""Link primitives."""

import math

import numpy as np
import pytest

from repro.net.link import Link
from repro.net.loss_models import BernoulliLoss
from repro.net.network import Network
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry


def test_defaults():
    link = Link("a", "b")
    assert link.up
    assert link.one_way_ms == 0.5
    assert not link.draw_drop()
    assert not link.draw_duplicate()


def test_set_rtt_halves_to_one_way():
    link = Link("a", "b")
    link.set_rtt(100.0)
    assert link.one_way_ms == 50.0
    assert link.rtt_ms == 100.0


def test_negative_rtt_rejected():
    with pytest.raises(ValueError):
        Link("a", "b").set_rtt(-1.0)


def test_bad_duplicate_p_rejected():
    # A link's duplicate_p is stored by the fabric's two setters; both
    # check the range, NaN included, before touching any link.
    network = Network(EventLoop(), RngRegistry(0))
    network.connect("a", "b", 1.0, 0.0)
    network.connect("b", "a", 1.0, 0.0)
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            network.set_duplicate("a", "b", bad)
        with pytest.raises(ValueError):
            network.set_all_duplicate(bad)
    assert network.link("a", "b").duplicate_p == 0.0


def test_loss_rate_passthrough():
    link = Link("a", "b", loss=BernoulliLoss(0.0), rng=np.random.default_rng(0))
    link.set_loss_rate(1.0)
    assert link.draw_drop()


def test_duplicate_draws():
    link = Link("a", "b", rng=np.random.default_rng(0))
    link.duplicate_p = 1.0
    assert link.draw_duplicate()


def test_delay_draw_positive():
    link = Link("a", "b", rng=np.random.default_rng(0))
    link.set_rtt(0.0)
    assert link.draw_delay() > 0.0
