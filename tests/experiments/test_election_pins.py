"""Exact pins of the paper figures' samples.

The figure smoke tests gate on ranges; these pin every sample of a short
run of each figure, so a refactor of the experiment code that moves a
single simulated number fails here.  Fig. 4 pins its per-episode arrays;
Fig. 5, Fig. 6 (one pattern at a time) and the scaling sweep pin
:func:`grid.digest` of their result records, the value ``--digest``
prints; the scenario matrix pins its full run the same way, and each §III
ablation study pins the (label, value, metrics) of its default points.
The ``--smoke`` runs of Fig. 7, Fig. 8 and the scenario matrix are pinned
only by ``FIXPOINTS.json`` (``tests/test_fixpoints.py``).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    fig4_election,
    fig5_throughput,
    fig6_rtt,
    fig_scale,
    grid,
    scenario_matrix,
)
from tests.experiments.test_fig_scale import tiny_config

_ELECTION_FIELDS = ("detection_ms", "ots_ms", "election_ms", "randomized_timeout_ms")


def _digest(runs, fields) -> str:
    h = hashlib.sha256()
    for res in runs:
        h.update(res.system.encode())
        for field in fields:
            h.update(np.asarray(getattr(res, field), dtype=np.float64).tobytes())
        h.update(repr(sorted(res.placement.items())).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "make, fields, digest",
    [
        (
            lambda: grid.run(fig4_election.GRID, fig4_election.Fig4Config(n_failures=6)),
            _ELECTION_FIELDS,
            "92bada299d341524",
        ),
    ],
    ids=["fig4"],
)
def test_leader_kill_samples_are_pinned(make, fields, digest):
    runs = make()
    assert all(len(r.episodes) == 6 for r in runs)
    assert _digest(runs, fields) == digest


@pytest.mark.parametrize(
    "make, exclude, digest",
    [
        (
            lambda: grid.run(fig5_throughput.GRID, fig5_throughput.Fig5Config(repeats=2)),
            (),
            "b9023513365774a0dd47f7a5312cddcf56a215468c9f74f50564bf5eaaae4a92",
        ),
        (
            lambda: grid.run(fig6_rtt.GRID, fig6_rtt.Fig6Config(dwell_ms=6_000.0), pattern=["gradual"]),
            (),
            "e65b72757100f667318a00a54466d2266f5787c4b08a031fc4238f2f65f1914e",
        ),
        (
            lambda: grid.run(fig6_rtt.GRID, fig6_rtt.Fig6Config(dwell_ms=6_000.0), pattern=["radical"]),
            (),
            "cb5895adebe23a075e35636340014948a7856d986cef5f77709b7588743cb48d",
        ),
        (
            lambda: grid.run(fig_scale.GRID, tiny_config()),
            ("wall_s",),
            "31028235b111dcb9b576c272573614a192c28da5b2e536e66fff66518f98a1d4",
        ),
    ],
    ids=["fig5", "fig6-gradual", "fig6-radical", "fig_scale"],
)
def test_figure_records_are_pinned(make, exclude, digest):
    assert grid.digest(make(), exclude=exclude) == digest


@pytest.mark.parametrize(
    "make, digest",
    [
        (
            lambda: grid.run(scenario_matrix.GRID),
            "3f1c25f505da06ae24f4b29672b06aacdb322aa2ab2aa9fbafdbf91f1ff50494",
        ),
    ],
    ids=["full"],
)
def test_scenario_matrix_records_are_pinned(make, digest):
    assert grid.digest(make()) == digest


@pytest.fixture(scope="module")
def ablation_points():
    return grid.run(ablations.GRID)


#: Hash of each study's default (label, value, metrics) points.
ABLATION_PINS = {
    "prevote": "d313d18197bdfbfb",
    "safety_factor": "c8e0efa10f431608",
    "arrival_probability": "66ccbcc789bad434",
    "min_list_size": "bb269700ef7bf0ed",
    "window": "517595a0f09e4d42",  # the descending leg, with fallbacks
    "fallback": "448ca7472d163b00",
}


@pytest.mark.parametrize("study", list(ABLATION_PINS))
def test_ablation_points_are_pinned(ablation_points, study):
    payload = [[p.label, p.value, p.metrics] for p in ablation_points if p.study == study]
    encoded = json.dumps(payload, sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest()[:16] == ABLATION_PINS[study]
