"""PathMeasurement: the RTTs/ids lists of §III-C — unit + properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dynatune.measurement import PathMeasurement


def _loss(m: PathMeasurement) -> float:
    return m.estimate()[2]


def test_validation():
    with pytest.raises(ValueError):
        PathMeasurement(min_list_size=0)
    with pytest.raises(ValueError):
        PathMeasurement(min_list_size=10, max_list_size=5)


def test_not_ready_until_min_list_size():
    m = PathMeasurement(min_list_size=3, max_list_size=10)
    for i in range(2):
        m.record(i, 100.0)
        assert not m.ready
    m.record(2)  # a heartbeat without an RTT sample does not count
    assert not m.ready
    m.record(3, 100.0)
    assert m.ready


def test_negative_rtt_rejected():
    with pytest.raises(ValueError):
        PathMeasurement().record(1, -1.0)


def test_rtt_stats():
    m = PathMeasurement(min_list_size=1)
    for seq, v in enumerate((90.0, 100.0, 110.0)):
        m.record(seq, v)
    mu, sigma, p = m.estimate()
    assert p == 0.0
    assert mu == pytest.approx(100.0)
    assert sigma == pytest.approx(8.164965, rel=1e-5)


def test_loss_rate_no_data():
    m = PathMeasurement()
    assert _loss(m) == 0.0
    m.record(5)
    assert _loss(m) == 0.0  # single id defines no span


def test_loss_rate_contiguous_ids_zero():
    m = PathMeasurement()
    for i in range(1, 11):
        m.record(i)
    assert _loss(m) == 0.0


def test_loss_rate_with_gaps():
    m = PathMeasurement()
    for i in (1, 2, 4, 5, 10):  # span 10, received 5
        m.record(i)
    assert _loss(m) == pytest.approx(0.5)


def test_out_of_order_ids_inserted_sorted():
    m = PathMeasurement()
    for i in (5, 1, 3, 2, 4):
        m.record(i)
    assert _loss(m) == 0.0  # complete despite reordering
    assert m.id_count == 5


def test_duplicate_ids_ignored():
    m = PathMeasurement()
    assert m.record(7) is True
    assert m.record(7) is False
    assert m.id_count == 1
    assert m.duplicates_ignored == 1


def test_duplicate_id_still_records_its_rtt():
    # The policy hands over an RTT only when the leader's sample is fresh;
    # a duplicated heartbeat ID does not make the sample stale.
    m = PathMeasurement(min_list_size=2)
    assert m.record(7, 10.0) is True
    assert m.record(7, 30.0) is False
    assert (m.id_count, m.rtt_count, m.ready) == (1, 2, True)
    assert m.estimate() == (20.0, 10.0, 0.0)


def test_id_window_slides_at_max_list_size():
    m = PathMeasurement(min_list_size=1, max_list_size=5)
    for i in range(1, 11):
        m.record(i)
    assert m.id_count == 5
    # window now covers ids 6..10 (oldest evicted)
    assert _loss(m) == 0.0


def test_rtt_window_bounded():
    m = PathMeasurement(min_list_size=1, max_list_size=4)
    for i in range(10):
        m.record(i, float(i))
    assert m.rtt_count == 4
    mu, _, _ = m.estimate()
    assert mu == pytest.approx((6 + 7 + 8 + 9) / 4)


def test_reset_discards_everything():
    m = PathMeasurement(min_list_size=2)
    m.record(1, 1.0)
    m.record(2, 2.0)
    m.reset()
    assert not m.ready
    assert m.rtt_count == 0
    assert m.id_count == 0
    assert _loss(m) == 0.0


# -- properties ---------------------------------------------------------- #


@settings(max_examples=200)
@given(ids=st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=100))
def test_loss_rate_always_in_unit_interval(ids):
    m = PathMeasurement()
    for i in ids:
        m.record(i)
    assert 0.0 <= _loss(m) < 1.0


@settings(max_examples=200)
@given(
    ids=st.sets(st.integers(min_value=1, max_value=300), min_size=2, max_size=100),
    order_seed=st.randoms(use_true_random=False),
)
def test_loss_rate_independent_of_arrival_order(ids, order_seed):
    """Reordering (partially synchronous network) must not change the
    measured loss rate (§III-C2)."""
    ids = list(ids)
    m1 = PathMeasurement()
    for i in sorted(ids):
        m1.record(i)
    shuffled = list(ids)
    order_seed.shuffle(shuffled)
    m2 = PathMeasurement()
    for i in shuffled:
        m2.record(i)
    assert _loss(m1) == pytest.approx(_loss(m2))


@settings(max_examples=100)
@given(
    present=st.sets(st.integers(min_value=1, max_value=200), min_size=2, max_size=150),
    dups=st.lists(st.integers(min_value=1, max_value=200), max_size=30),
)
def test_duplicates_never_change_loss_rate(present, dups):
    m1 = PathMeasurement()
    for i in sorted(present):
        m1.record(i)
    base = _loss(m1)
    for d in dups:
        if d in present:
            m1.record(d)
    assert _loss(m1) == pytest.approx(base)


@settings(max_examples=100)
@given(st.data())
def test_loss_rate_matches_true_bernoulli_thinning(data):
    """Feeding ids 1..n with every k-th dropped yields p ≈ dropped/n."""
    n = data.draw(st.integers(min_value=20, max_value=300))
    drop = data.draw(st.sets(st.integers(min_value=2, max_value=n - 1), max_size=n // 2))
    m = PathMeasurement()
    received = [i for i in range(1, n + 1) if i not in drop]
    for i in received:
        m.record(i)
    expected = 1.0 - len(received) / n
    assert _loss(m) == pytest.approx(expected)
