"""Policies in isolation: Static (Raft/Raft-Low), Dynatune, Fix-K."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dynatune.config import (
    DEFAULT_ELECTION_TIMEOUT_MS,
    DEFAULT_HEARTBEAT_INTERVAL_MS,
    ET_FLOOR_MS,
    H_FLOOR_MS,
    K_MAX,
    DynatuneConfig,
)
from repro.dynatune.measurement import PathMeasurement
from repro.dynatune.metadata import HeartbeatMeta, HeartbeatResponseMeta
from repro.dynatune.policy import DynatunePolicy, StaticPolicy
from repro.dynatune.tuner import required_heartbeats, tune_election_timeout, tune_heartbeat


# -- StaticPolicy ----------------------------------------------------------- #


def test_static_defaults():
    p = StaticPolicy.raft_default()
    assert p.election_timeout_ms(None) == 1000.0
    assert p.election_timeout_ms("leader") == 1000.0
    assert p.heartbeat_interval_ms("any") == 100.0
    assert p.heartbeat_channel == "tcp"


def test_static_raft_low_is_one_tenth():
    p = StaticPolicy.raft_low()
    assert p.election_timeout_ms(None) == 100.0
    assert p.heartbeat_interval_ms("x") == 10.0


def test_static_no_metadata():
    p = StaticPolicy.raft_default()
    assert p.heartbeat_meta("f", 0.0) is None
    assert p.on_heartbeat("l", None, 0.0) is None


def test_static_validation():
    with pytest.raises(ValueError):
        StaticPolicy(0.0, 100.0)
    with pytest.raises(ValueError):
        StaticPolicy(100.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["et", "h"])
def test_static_rejects_non_finite(which, bad):
    et, h = (bad, 100.0) if which == "et" else (1000.0, bad)
    with pytest.raises(ValueError):
        StaticPolicy(et, h)


# -- DynatunePolicy: leader half --------------------------------------------- #


def test_leader_half_assigns_sequential_ids():
    p = DynatunePolicy()
    metas = [p.heartbeat_meta("f1", float(t)) for t in range(3)]
    assert [m.seq for m in metas] == [1, 2, 3]
    # independent sequence per follower path
    assert p.heartbeat_meta("f2", 0.0).seq == 1


def test_leader_half_timestamps_sends():
    p = DynatunePolicy()
    assert p.heartbeat_meta("f", 123.5).send_ts == 123.5


def test_leader_half_measures_rtt_from_echo():
    p = DynatunePolicy()
    meta = p.heartbeat_meta("f", 100.0)
    p.on_heartbeat_response(
        "f", HeartbeatResponseMeta(echo_seq=meta.seq, echo_ts=meta.send_ts), 150.0
    )
    nxt = p.heartbeat_meta("f", 200.0)
    assert nxt.rtt_sample_ms == pytest.approx(50.0)
    assert nxt.rtt_sample_seq == 1


def test_leader_half_ignores_negative_rtt():
    p = DynatunePolicy()
    p.on_heartbeat_response("f", HeartbeatResponseMeta(echo_seq=1, echo_ts=500.0), 100.0)
    assert p.heartbeat_meta("f", 200.0).rtt_sample_ms is None


def test_leader_half_applies_piggybacked_h():
    p = DynatunePolicy()
    assert p.heartbeat_interval_ms("f") == 100.0  # default
    p.on_heartbeat_response(
        "f", HeartbeatResponseMeta(echo_seq=1, echo_ts=0.0, tuned_h_ms=42.0), 1.0
    )
    assert p.heartbeat_interval_ms("f") == 42.0


def test_leader_half_rejects_h_no_follower_could_tune():
    """An h below min(h_floor, et_floor) cannot come from tune_heartbeat;
    the leader ignores it (storm guard) rather than clamping it *up*,
    which would space heartbeats past the follower's election window."""
    p = DynatunePolicy()
    p.on_heartbeat_response(
        "f", HeartbeatResponseMeta(echo_seq=1, echo_ts=0.0, tuned_h_ms=0.001), 1.0
    )
    assert p.heartbeat_interval_ms("f") == DEFAULT_HEARTBEAT_INTERVAL_MS


def test_become_leader_resets_paths():
    p = DynatunePolicy()
    p.heartbeat_meta("f", 0.0)
    p.on_become_leader(10.0)
    assert p.heartbeat_meta("f", 20.0).seq == 1  # sequence restarted


# -- DynatunePolicy: follower half -------------------------------------------- #


def feed(p, leader, n, *, rtt=100.0, start_seq=1, now=0.0):
    """Deliver n heartbeats with fresh RTT samples; returns last response."""
    resp = None
    for i in range(n):
        meta = HeartbeatMeta(
            seq=start_seq + i,
            send_ts=now + i,
            rtt_sample_ms=rtt,
            rtt_sample_seq=start_seq + i,
        )
        resp = p.on_heartbeat(leader, meta, now + i)
    return resp


def test_follower_defaults_until_min_list_size():
    cfg = DynatuneConfig(min_list_size=5)
    p = DynatunePolicy(cfg)
    feed(p, "L", 4)
    assert p.election_timeout_ms("L") == DEFAULT_ELECTION_TIMEOUT_MS
    assert p.tuned_et_ms is None
    feed(p, "L", 1, start_seq=5)
    assert p.tuned_et_ms is not None


def test_follower_tunes_et_to_mu_plus_s_sigma():
    p = DynatunePolicy(DynatuneConfig(min_list_size=5))
    feed(p, "L", 10, rtt=100.0)
    # constant RTT -> sigma = 0 -> Et = 100
    assert p.election_timeout_ms("L") == pytest.approx(100.0)


def test_follower_piggybacks_h():
    p = DynatunePolicy(DynatuneConfig(min_list_size=3))
    resp = feed(p, "L", 5, rtt=100.0)
    assert resp is not None
    assert resp.tuned_h_ms == pytest.approx(100.0)  # K=1 at zero loss


def test_follower_echoes_ts_and_seq():
    p = DynatunePolicy()
    meta = HeartbeatMeta(seq=9, send_ts=77.0)
    resp = p.on_heartbeat("L", meta, 80.0)
    assert resp.echo_seq == 9
    assert resp.echo_ts == 77.0


def test_follower_detects_loss_and_raises_k():
    p = DynatunePolicy(DynatuneConfig(min_list_size=5))
    # every other heartbeat lost: ids 1,3,5,... -> p = 0.5 -> K = 10
    for i in range(40):
        meta = HeartbeatMeta(
            seq=1 + 2 * i, send_ts=float(i), rtt_sample_ms=100.0, rtt_sample_seq=i + 1
        )
        p.on_heartbeat("L", meta, float(i))
    # 1 - 0.5^K >= 0.999 -> K = 10 -> h = 100/10
    assert p.tuned_h_ms == pytest.approx(10.0, rel=0.1)


def test_stale_rtt_samples_recorded_once():
    p = DynatunePolicy(DynatuneConfig(min_list_size=1))
    for i in range(5):  # same rtt_sample_seq repeated (lost responses)
        meta = HeartbeatMeta(seq=i + 1, send_ts=float(i), rtt_sample_ms=100.0, rtt_sample_seq=1)
        p.on_heartbeat("L", meta, float(i))
    assert p.measurement.rtt_count == 1


def test_fallback_on_election_timeout():
    p = DynatunePolicy(DynatuneConfig(min_list_size=3))
    feed(p, "L", 5)
    assert p.tuned_et_ms is not None
    p.on_election_timeout(100.0)
    assert p.tuned_et_ms is None
    assert p.election_timeout_ms("L") == 1000.0
    assert p.measurement.rtt_count == 0
    assert p.fallbacks == 1


def test_leader_change_resets_measurement():
    p = DynatunePolicy(DynatuneConfig(min_list_size=3))
    feed(p, "L1", 5)
    assert p.tuned_et_ms is not None
    p.on_leader_change("L2", 50.0)
    assert p.tuned_et_ms is None
    assert p.measurement.rtt_count == 0
    # Et for the old leader also reverts to default.
    assert p.election_timeout_ms("L1") == 1000.0


def test_heartbeat_from_unexpected_leader_restarts_measurement():
    p = DynatunePolicy(DynatuneConfig(min_list_size=2))
    feed(p, "L1", 3)
    # heartbeat from a different leader without an explicit change callback
    meta = HeartbeatMeta(seq=1, send_ts=0.0, rtt_sample_ms=50.0, rtt_sample_seq=1)
    p.on_heartbeat("L2", meta, 0.0)
    assert p.measurement.rtt_count == 1  # only the new leader's sample


def test_heartbeat_without_meta_returns_none():
    p = DynatunePolicy()
    p.on_leader_change("L", 0.0)
    assert p.on_heartbeat("L", None, 0.0) is None


# -- Fix-K variant ------------------------------------------------------------ #


def test_fix_k_pins_heartbeat_count():
    p = DynatunePolicy(DynatuneConfig(min_list_size=3, fixed_k=10))
    feed(p, "L", 5, rtt=200.0)
    # Et tunes to 200; h pinned to Et/10 regardless of (zero) loss.
    assert p.tuned_et_ms == pytest.approx(200.0)
    assert p.tuned_h_ms == pytest.approx(20.0)


def test_fix_k_et_still_tunes():
    p = DynatunePolicy(DynatuneConfig(min_list_size=3, fixed_k=10))
    feed(p, "L", 5, rtt=50.0)
    assert p.election_timeout_ms("L") == pytest.approx(50.0)


def test_channel_from_config():
    """No config moves the channel: Dynatune (Fix-K too) beats over UDP,
    the static baselines over TCP."""
    assert DynatunePolicy().heartbeat_channel == "udp"
    assert DynatunePolicy(DynatuneConfig(fixed_k=10)).heartbeat_channel == "udp"
    assert StaticPolicy.raft_low().heartbeat_channel == "tcp"


# -- partition-induced sample gaps ------------------------------------------ #


def _feed_heartbeats(p, start_ms, count, *, spacing_ms=100.0, rtt_ms=50.0, seq0=0):
    """Drive the follower half with well-formed heartbeats from leader L."""
    now = start_ms
    for i in range(count):
        p.on_heartbeat(
            "L",
            HeartbeatMeta(
                seq=seq0 + i + 1,
                send_ts=now,
                rtt_sample_ms=rtt_ms,
                rtt_sample_seq=seq0 + i + 1,
            ),
            now,
        )
        now += spacing_ms
    return now


def test_gap_longer_than_twice_et_resets_window():
    p = DynatunePolicy()
    end = _feed_heartbeats(p, 0.0, 15)
    assert p.tuned_et_ms is not None
    tuned_et = p.tuned_et_ms
    # Silence far beyond any randomized draw of the tuned Et, with no
    # election timeout (frozen timers during a pause/partition heal).
    p.on_heartbeat(
        "L",
        HeartbeatMeta(seq=500, send_ts=end + 50_000.0, rtt_sample_ms=50.0, rtt_sample_seq=500),
        end + 50_000.0,
    )
    assert p.gap_resets == 1
    assert p.tuned_et_ms is None  # back to Step 0
    assert 2.0 * tuned_et < 50_000.0  # the gap really exceeded the threshold


def test_gap_reset_prevents_k_explosion_after_outage():
    """Without the reset, the post-heal ID span counts the outage as loss."""
    p = DynatunePolicy()
    end = _feed_heartbeats(p, 0.0, 15)
    # outage: 400 heartbeats lost, then the stream resumes
    _feed_heartbeats(p, end + 60_000.0, 15, seq0=400)
    # The same heartbeat IDs in one window that nothing resets: the ID gap
    # looks like ~93% loss, so K would explode and h collapse to the floor.
    bare = PathMeasurement(10, 1000)
    for seq in [*range(1, 16), *range(401, 416)]:
        bare.record(seq, 50.0)
    loss = bare.estimate()[2]
    assert loss > 0.9
    assert required_heartbeats(loss, 0.999, k_max=K_MAX) == K_MAX
    # The gap reset starts a fresh window instead.
    assert p.measurement.estimate()[2] < 0.05
    assert p.gap_resets == 1
    assert p.last_tuning.requested_k == 1
    assert p.tuned_h_ms == p.tuned_et_ms


def test_small_gaps_do_not_reset():
    p = DynatunePolicy()
    end = _feed_heartbeats(p, 0.0, 15)
    last_hb = end - 100.0  # _feed_heartbeats returns last time + spacing
    # The next beat lands within 2*Et of the previous one: normal cadence.
    et = p.election_timeout_ms("L")
    t = last_hb + 1.5 * et
    p.on_heartbeat(
        "L",
        HeartbeatMeta(seq=16, send_ts=t, rtt_sample_ms=50.0, rtt_sample_seq=16),
        t,
    )
    assert p.gap_resets == 0
    assert p.tuned_et_ms is not None


def _feed_lossy(p, count=40, *, every=4, rtt_ms=1.0):
    """Heartbeats 1 ms apart over a 1 ms path, one in ``every`` delivered:
    Et sits on ET_FLOOR_MS and ~75 % loss asks for K = 24, so Et / K falls
    below H_FLOOR_MS.  Returns the last response."""
    resp = None
    for i in range(count):
        seq = 1 + i * every
        resp = p.on_heartbeat(
            "L", HeartbeatMeta(seq, float(i), rtt_ms, seq), float(i)
        )
    return resp


def test_retune_surfaces_floor_clamp_metadata():
    p = DynatunePolicy()
    _feed_lossy(p)
    # Et = 10 ms floor, K = 24 -> Et / K = 0.42 ms < 1 ms floor: h sits on
    # the floor and only Et / h = 10 beats fit in the window.
    assert p.tuned_et_ms == ET_FLOOR_MS
    assert p.last_tuning is not None
    assert p.last_tuning.floor_clamped
    assert p.floor_clamps >= 1
    assert p.tuned_h_ms == H_FLOOR_MS
    assert p.last_tuning.requested_k == 24
    assert p.last_tuning.effective_k == 10


@settings(max_examples=150, deadline=None)
@given(
    rtts=st.lists(st.floats(min_value=0.0, max_value=2_000.0), min_size=1, max_size=30),
    gaps=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=60),
    fixed_k=st.none() | st.integers(min_value=1, max_value=60),
)
@example(rtts=[1.0, 3.0], gaps=[1, 3, 1, 2, 4], fixed_k=None)  # both floors
@example(rtts=[1.0], gaps=[1] * 20, fixed_k=60)  # fixed K, h floor
def test_retune_matches_tuner_references(rtts, gaps, fixed_k):
    """``_retune`` applies the tuning formulas inline; after every heartbeat
    its Et, h and clamp provenance equal ``tune_election_timeout`` /
    ``required_heartbeats`` / ``tune_heartbeat`` applied to the
    measurement's own ``estimate()`` — over RTT windows that slide, ID gaps
    (loss), Fix-K and both floor clamps."""
    cfg = DynatuneConfig(min_list_size=1, max_list_size=16, fixed_k=fixed_k)
    p = DynatunePolicy(cfg)
    seq = 0
    for i, gap in enumerate(gaps):
        seq += gap
        meta = HeartbeatMeta(seq, float(i), rtts[i % len(rtts)], i + 1)
        p.on_heartbeat("L", meta, float(i))
        mu, sigma, loss = p.measurement.estimate()
        et = tune_election_timeout(mu, sigma, safety_factor=cfg.safety_factor)
        k = fixed_k or required_heartbeats(loss, cfg.arrival_probability, k_max=K_MAX)
        tuning = tune_heartbeat(et, k, floor_ms=H_FLOOR_MS)
        assert p.tuned_et_ms == et
        assert p.tuned_h_ms == tuning.h_ms
        assert p.last_tuning == tuning


def test_leader_applies_follower_h_below_its_own_floor():
    """A follower clamped to the h floor piggybacks exactly that floor; the
    leader must honour it as-is — the smallest h a follower can tune is
    ``min(H_FLOOR_MS, Et)``, and re-raising it would space heartbeats past
    the follower's election window (K·h <= Et, leader side)."""
    follower = DynatunePolicy()
    resp = _feed_lossy(follower)
    assert resp.tuned_h_ms == H_FLOOR_MS and follower.last_tuning.floor_clamped
    leader = DynatunePolicy()
    leader.on_heartbeat_response("f", resp, 40.0)
    assert leader.heartbeat_interval_ms("f") == H_FLOOR_MS


def test_leader_rejects_degenerate_piggybacked_h():
    leader = DynatunePolicy()
    leader.on_heartbeat_response(
        "f", HeartbeatResponseMeta(echo_seq=1, echo_ts=0.0, tuned_h_ms=0.0), 40.0
    )
    assert leader.heartbeat_interval_ms("f") == DEFAULT_HEARTBEAT_INTERVAL_MS
