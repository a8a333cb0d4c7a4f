"""Pre-vote and lease protection — the mechanisms behind Fig. 6b."""

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.dynatune.policy import StaticPolicy
from repro.raft.messages import VoteRequest
from repro.raft.types import RaftConfig, Role


def make_cluster(prevote=True, check_quorum=True, n=5, seed=5):
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=n,
            seed=seed,
            rtt_ms=20.0,
            raft=RaftConfig(prevote=prevote, check_quorum=check_quorum),
        ),
        lambda name: StaticPolicy(election_timeout_ms=300.0, heartbeat_interval_ms=50.0),
    )
    cluster.start()
    return cluster


def test_prevote_does_not_bump_term():
    """An isolated follower keeps pre-voting without inflating its term."""
    c = make_cluster()
    leader = c.run_until_leader()
    c.run_for(500)
    victim = next(n for n in c.names if n != leader)
    term_before = c.node(victim).current_term
    c.network.set_partitions([{victim}, set(c.names) - {victim}])
    c.run_for(10_000)
    # The victim suspects the leader but cannot win a pre-vote, so its term
    # must not grow (that is the whole point of the pre-vote phase).
    assert c.node(victim).current_term == term_before
    assert c.node(victim).metrics.prevote_rounds > 0
    assert c.node(victim).metrics.elections_started == 0


def test_without_prevote_isolated_node_inflates_term():
    c = make_cluster(prevote=False, check_quorum=False)
    leader = c.run_until_leader()
    c.run_for(500)
    victim = next(n for n in c.names if n != leader)
    term_before = c.node(victim).current_term
    c.network.set_partitions([{victim}, set(c.names) - {victim}])
    c.run_for(10_000)
    assert c.node(victim).current_term > term_before + 3


def test_rejoining_prevoter_does_not_disrupt_leader():
    """With pre-vote, the healed node falls back in line without deposing
    the leader — without it (and without leases), rejoin forces turnover."""
    c = make_cluster()
    leader = c.run_until_leader()
    c.run_for(500)
    victim = next(n for n in c.names if n != leader)
    c.network.set_partitions([{victim}, set(c.names) - {victim}])
    c.run_for(10_000)
    term_during = c.node(leader).current_term
    c.network.clear_partitions()
    c.run_for(5_000)
    assert c.leader() == leader
    assert c.node(leader).current_term == term_during
    assert c.node(victim).leader_id == leader


def test_lease_rejects_votes_while_leader_alive():
    """A higher-term VoteRequest is refused — and the term NOT adopted —
    by a follower with a fresh leader lease (etcd's inLease rule)."""
    c = make_cluster()
    leader = c.run_until_leader()
    c.run_for(2_000)
    others = [n for n in c.names if n != leader]
    voter, intruder = c.node(others[0]), others[1]
    term_before = voter.current_term
    voter.deliver(
        intruder,
        VoteRequest(
            term=term_before + 10,
            candidate=intruder,
            last_log_index=10_000,
            last_log_term=term_before + 10,
        ),
    )
    assert voter.current_term == term_before  # term NOT adopted
    assert voter.voted_for != intruder
    assert voter.metrics.votes_rejected >= 1


def test_vote_granted_once_lease_expired():
    c = make_cluster()
    leader = c.run_until_leader()
    c.run_for(500)
    others = [n for n in c.names if n != leader]
    voter_name, intruder = others[0], others[1]
    voter = c.node(voter_name)
    # Cut the voter off so its lease lapses, then ask again.
    c.network.set_partitions([{voter_name}, set(c.names) - {voter_name}])
    c.run_for(2_000)
    term = voter.current_term
    voter.deliver(
        intruder,
        VoteRequest(
            term=term + 10,
            candidate=intruder,
            last_log_index=10_000,
            last_log_term=term + 10,
        ),
    )
    assert voter.current_term == term + 10
    assert voter.voted_for == intruder


def test_prevote_aborts_when_leader_heartbeat_arrives():
    """A follower that spuriously times out reverts on the next heartbeat
    instead of electing — the Fig. 6b save."""
    c = make_cluster()
    leader = c.run_until_leader()
    c.run_for(1_000)
    victim_name = next(n for n in c.names if n != leader)
    victim = c.node(victim_name)
    # Force a false detection: fire the election timer by hand.
    victim._on_election_timeout()
    assert victim.role is Role.PRECANDIDATE
    c.run_for(2_000)
    assert victim.role is Role.FOLLOWER
    assert victim.leader_id == leader
    assert victim.metrics.elections_started == 0
    assert c.leader() == leader


def test_quorum_check_steps_leader_down_when_isolated():
    c = make_cluster()
    leader = c.run_until_leader()
    c.run_for(500)
    c.network.set_partitions([{leader}, set(c.names) - {leader}])
    c.run_for(10_000)
    # It relinquished leadership (it may since cycle follower/precandidate
    # as its own election timer expires in isolation).
    assert c.node(leader).role is not Role.LEADER
    assert any(r.node == leader for r in c.trace.of_kind("quorum_lost"))


def test_without_quorum_check_isolated_leader_lingers():
    c = make_cluster(check_quorum=False)
    leader = c.run_until_leader()
    c.run_for(500)
    c.network.set_partitions([{leader}, set(c.names) - {leader}])
    c.run_for(10_000)
    # Nobody tells it otherwise: it still believes it leads (stale reads
    # hazard etcd's CheckQuorum exists to bound).
    assert c.node(leader).role is Role.LEADER


def test_prevote_response_rejection_with_higher_term_steps_down():
    """A pre-candidate that discovers a higher term reverts to follower."""
    c = make_cluster()
    leader = c.run_until_leader()
    c.run_for(500)
    victim_name = next(n for n in c.names if n != leader)
    victim = c.node(victim_name)
    from repro.raft.messages import PreVoteResponse

    victim._on_election_timeout()
    assert victim.role is Role.PRECANDIDATE
    victim.deliver(
        "peer",
        PreVoteResponse(term=victim.current_term + 5, voter="peer", granted=False),
    )
    assert victim.role is Role.FOLLOWER
    assert victim.current_term >= 5
