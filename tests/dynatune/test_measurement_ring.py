"""PathMeasurement ID ring: O(1) monotone path vs the seed insort semantics.

The seed kept a plain sorted list with ``insort`` + ``pop(0)``; the ring
(list + head offset) must reproduce its observable behaviour exactly —
window contents, duplicate counting, loss rate, and the quirky
"insert-below-window then immediately evict" case — while the monotone
path stays allocation- and shift-free.
"""

import bisect

import numpy as np
import pytest

from repro.dynatune.measurement import PathMeasurement


class SeedIds:
    """Reference implementation: the seed's insort-based ID list."""

    def __init__(self, max_list_size: int) -> None:
        self.max = max_list_size
        self.ids: list[int] = []
        self.dups = 0

    def record(self, seq: int) -> bool:
        pos = bisect.bisect_left(self.ids, seq)
        if pos < len(self.ids) and self.ids[pos] == seq:
            self.dups += 1
            return False
        self.ids.insert(pos, seq)
        if len(self.ids) > self.max:
            self.ids.pop(0)
        return True

    def loss_rate(self) -> float:
        if len(self.ids) < 2:
            return 0.0
        expected = self.ids[-1] - self.ids[0] + 1
        p = 1.0 - len(self.ids) / expected
        return p if p > 0.0 else 0.0


@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
def test_ring_matches_seed_reference_under_chaos(seed):
    """Random mix of in-order, reordered, duplicate, and ancient IDs."""
    rng = np.random.default_rng(seed)
    m = PathMeasurement(min_list_size=1, max_list_size=50)
    ref = SeedIds(50)
    next_seq = 1
    recent: list[int] = []
    for _ in range(3_000):
        roll = rng.random()
        if roll < 0.70:
            seq = next_seq
            next_seq += 1
        elif roll < 0.85 and recent:
            seq = recent[int(rng.integers(0, len(recent)))]  # duplicate
        elif roll < 0.95:
            seq = max(1, next_seq - int(rng.integers(1, 8)))  # reordered
        else:
            seq = max(1, next_seq - int(rng.integers(40, 120)))  # ancient
        recent.append(seq)
        if len(recent) > 30:
            recent.pop(0)
        assert m.record(seq) == ref.record(seq)
        assert m.ids() == ref.ids
        assert m.id_count == len(ref.ids)
        assert m.estimate()[2] == ref.loss_rate()
    assert m.duplicates_ignored == ref.dups


def test_monotone_eviction_compacts_dead_prefix():
    m = PathMeasurement(min_list_size=1, max_list_size=10)
    for i in range(1, 200):
        m.record(i)
    assert m.id_count == 10
    assert m.ids() == list(range(190, 200))
    # The backing list must stay bounded (dead prefix compacted away).
    assert len(m._ids) <= 21


def test_below_window_insert_with_full_window_is_evicted_immediately():
    # Seed quirk: an ID older than the whole full window is inserted then
    # evicted by the size bound — reported True, not counted a duplicate.
    m = PathMeasurement(min_list_size=1, max_list_size=5)
    for i in range(10, 16):
        m.record(i)
    assert m.ids() == [11, 12, 13, 14, 15]
    assert m.record(3) is True
    assert m.ids() == [11, 12, 13, 14, 15]
    assert m.duplicates_ignored == 0


def test_reset_clears_ring_and_ready():
    m = PathMeasurement(min_list_size=2, max_list_size=10)
    for i in range(1, 30):
        m.record(i)
    m.record(30, 10.0)
    m.record(31, 12.0)
    assert m.ready
    m.reset()
    assert m.id_count == 0
    assert m.ids() == []
    assert m.estimate() == (0.0, 0.0, 0.0)
    assert not m.ready
    m.record(5)  # ring restarts cleanly after reset
    assert m.ids() == [5]


def test_ready_tracks_min_list_size():
    m = PathMeasurement(min_list_size=3, max_list_size=10)
    assert not m.ready
    m.record(1, 1.0)
    m.record(2, 2.0)
    assert not m.ready
    m.record(3, 3.0)
    assert m.ready
    # Stays ready while the (full) window slides.
    for seq in range(4, 54):
        m.record(seq, 4.0)
    assert m.ready
