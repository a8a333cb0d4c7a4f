"""The leader's commit rule: ``quorum_match`` vs the seed sorted() oracle.

The seed ``_advance_commit`` sorted every match index (plus the leader's
own last index) on every response and took the quorum-th largest.
``quorum_match`` is that rule over the voter peers' ``Progress`` records
alone — the leader's own log counts through ``Quorum.acks`` — and must
agree with the oracle over arbitrary match progressions, including leader
changes (full reset) and interleaved per-follower advancement.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raft.membership import ClusterConfig, Quorum
from repro.raft.messages import AppendEntriesResponse
from repro.raft.node import Progress, quorum_match
from tests.conftest import make_raft_cluster


def oracle_candidate(matches: dict[str, int], last_index: int, quorum: int) -> int:
    """The seed implementation: sort all matches, take the quorum-th."""
    ranked = sorted(list(matches.values()) + [last_index], reverse=True)
    return ranked[quorum - 1]


def progress_of(matches: dict[str, int]) -> dict[str, Progress]:
    return {p: Progress(p, m + 1, 0.0, 0.0, match=m) for p, m in matches.items()}


def match_of(matches: list[int], last_index: int) -> int:
    """``quorum_match`` for leader ``n0`` of an all-voter cluster whose
    other voters hold ``matches``."""
    peers = {f"n{i + 1}": m for i, m in enumerate(matches)}
    quorum = Quorum.of(ClusterConfig(("n0", *peers)), "n0")
    return quorum_match(progress_of(peers), quorum, last_index)


def test_single_follower_cluster_of_three():
    # n=3: quorum 2, one follower ack commits.
    assert match_of([5, 0], 9) == 5
    assert match_of([5, 7], 9) == 7


def test_needs_quorum_minus_one_distinct_acks():
    # n=5: quorum 3 -> 2 follower acks per index.
    assert match_of([10, 0, 0, 0], 12) == 0  # one follower alone commits nothing
    assert match_of([10, 4, 0, 0], 12) == 4  # second follower: min(10, 4)
    assert match_of([10, 12, 0, 0], 12) == 10  # now min(10, 12)


def test_acks_needed_zero_returns_frontier_unchanged():
    # Sole voter: no follower evidence is needed, so the leader's own log
    # frontier is the candidate whatever its learner has acknowledged.
    quorum = Quorum.of(ClusterConfig(("n0",), ("n1",)), "n0")
    assert quorum.acks == 0
    assert quorum_match(progress_of({"n1": 3}), quorum, 100) == 100


def test_stale_or_equal_match_is_a_noop():
    """A replayed or reordered ack must not move a follower's ``match``
    back, nor re-run a commit."""
    c = make_raft_cluster(3)
    leader = c.node(c.run_until_leader())
    c.run_for(500)  # the term-start no-op commits
    follower = next(iter(leader.progress))
    match = leader.progress[follower].match
    assert match == leader.commit_index == leader.log.last_index > 0
    advances = leader.metrics.commit_advances
    for acked in (match, match - 1):
        leader.deliver(
            follower,
            AppendEntriesResponse(
                term=leader.current_term,
                follower=follower,
                success=True,
                match_index=acked,
            ),
        )
        assert leader.progress[follower].match == match
        assert leader.commit_index == match
        assert leader.metrics.commit_advances == advances


@settings(max_examples=200, deadline=None)
@given(
    n_nodes=st.sampled_from([3, 5, 7, 9]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_events=st.integers(min_value=1, max_value=120),
)
def test_agrees_with_sorted_oracle_over_random_histories(n_nodes, seed, n_events):
    """Random interleavings of per-follower progress + leader changes."""
    rng = np.random.default_rng(seed)
    quorum = n_nodes // 2 + 1
    followers = [f"f{i}" for i in range(n_nodes - 1)]
    matches = {f: 0 for f in followers}
    last_index = 0
    for _ in range(n_events):
        ev = rng.integers(0, 10)
        if ev == 0:
            # Leader change: new reign, every match restarts at 0 (the
            # node builds fresh Progress records in _become_leader).
            matches = {f: 0 for f in followers}
            # The new leader's log keeps growing from wherever it was.
            last_index += int(rng.integers(0, 3))
            continue
        if ev == 1:
            last_index += int(rng.integers(1, 6))  # client appends
            continue
        f = followers[int(rng.integers(0, len(followers)))]
        if matches[f] >= last_index:
            continue
        matches[f] = int(rng.integers(matches[f] + 1, last_index + 1))
        got = match_of(list(matches.values()), last_index)
        want = oracle_candidate(matches, last_index, quorum)
        assert got == want, (matches, last_index, quorum)
