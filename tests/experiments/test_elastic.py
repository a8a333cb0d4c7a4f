"""Elastic experiment: config derivation, gates, one real run."""

import dataclasses

import pytest

from repro.experiments.elastic import ElasticConfig, check, run_one
from repro.experiments.grid import digest


def test_config_validation():
    with pytest.raises(ValueError):
        ElasticConfig(family="explode")
    with pytest.raises(ValueError):
        ElasticConfig(family="shrink", n_start=3, changes=3)
    with pytest.raises(ValueError):
        ElasticConfig(family="replace", n_start=3, changes=4)


def test_expected_shapes_per_family():
    grow = ElasticConfig(family="grow", n_start=3, changes=4)
    assert grow.spawned == ("n4", "n5", "n6", "n7")
    assert grow.expected_final_voters == ("n1", "n2", "n3", "n4", "n5", "n6", "n7")
    assert grow.expected_removed == ()
    assert grow.expected_config_commits == 8  # add + promote each

    shrink = ElasticConfig(family="shrink", n_start=7, changes=4)
    assert shrink.spawned == ()
    assert shrink.expected_final_voters == ("n1", "n2", "n3")
    assert shrink.expected_removed == ("n4", "n5", "n6", "n7")
    assert shrink.expected_config_commits == 4

    swap = ElasticConfig(family="replace", n_start=3, changes=3)
    assert swap.spawned == ("n4", "n5", "n6")
    assert swap.expected_final_voters == ("n4", "n5", "n6")
    assert swap.expected_removed == ("n1", "n2", "n3")
    assert swap.expected_config_commits == 9


def quick(family):
    return ElasticConfig(
        family=family,
        changes=1,
        n_start=4 if family == "shrink" else 3,
        gap_ms=4_000.0,
        settle_ms=6_000.0,
    )


def test_grow_run_passes_every_gate():
    r = run_one(quick("grow"))
    problems = check((r,))
    assert problems == []
    assert r.config_commits == 2
    assert r.joiner_snapshot_installs == (1,)
    assert "n4" in r.final_voters
    assert r.detection_ms is not None  # the induced pause was measured


def test_check_flags_a_doctored_run():
    r = run_one(quick("grow"))
    bad = dataclasses.replace(
        r, joiner_snapshot_installs=(0,), config_commits=1, giveups=2
    )
    problems = check((bad,))
    assert any("without a snapshot" in p for p in problems)
    assert any("config entries committed" in p for p in problems)
    assert any("abandoned" in p for p in problems)


def test_run_is_deterministic():
    cfg = dataclasses.replace(quick("shrink"), system="dynatune", seed=78)
    a, b = run_one(cfg), run_one(cfg)
    assert a == b
    assert digest((a,)) == digest((b,))
