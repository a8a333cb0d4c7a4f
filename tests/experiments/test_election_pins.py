"""Exact pins of the leader-kill experiments' per-episode samples.

The figure smoke tests gate on ranges; these pin every sample of a short
Fig. 4 and Fig. 8 run, so a refactor of the experiment code that moves a
single simulated number fails here.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.experiments import fig4_election, fig8_geo

_ELECTION_FIELDS = ("detection_ms", "ots_ms", "election_ms", "randomized_timeout_ms")


def _digest(result, fields) -> str:
    h = hashlib.sha256()
    for system, res in result.systems.items():
        h.update(system.encode())
        for field in fields:
            h.update(np.asarray(getattr(res, field), dtype=np.float64).tobytes())
        h.update(repr(sorted(res.placement.items())).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "make, fields, digest",
    [
        (
            lambda: fig4_election.run(fig4_election.Fig4Config(n_failures=6)),
            _ELECTION_FIELDS,
            "92bada299d341524",
        ),
        (
            lambda: fig4_election.run(dataclasses.replace(fig8_geo.quick(), n_failures=6)),
            ("detection_ms", "ots_ms"),
            "95b34c76a14f8fef",
        ),
    ],
    ids=["fig4", "fig8"],
)
def test_leader_kill_samples_are_pinned(make, fields, digest):
    result = make()
    assert all(len(r.episodes) == 6 for r in result.systems.values())
    assert _digest(result, fields) == digest
