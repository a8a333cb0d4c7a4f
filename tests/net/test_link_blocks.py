"""A link's pre-drawn jitter blocks against scalar draws, to the bit.

While a link is *quiet* (no loss or duplicate draw can touch its stream,
Gaussian jitter) ``Network.transmit`` serves its one draw per send from a
block the link drew in one numpy call; every other use of the stream first
rewinds the generator to where scalar draws would have left it.  The twin
below never leaves the scalar path: an identically seeded ``Link`` driven
through the ``transport.py`` reference plans.  Delivery instants, counters
and — wherever a rewind is due — the generator's ``bit_generator.state``
must be *equal*, through every interleaving of sends with the things that
end or interrupt quietness.
"""

import copy
import hashlib
import inspect
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.experiments.common import make_policy_factory
from repro.net.delay_models import ConstantDelay, LognormalJitterDelay, NormalJitterDelay
from repro.net.link import HOT_AFTER, JITTER_BLOCK, Link
from repro.net.loss_models import BernoulliLoss
from repro.net.network import Network
from repro.net.stats import LinkStats
from repro.net.transport import TcpChannelState, tcp_transmission_plan, udp_transmission_plan
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry

NAME = "net/a->b"
SIGMA_MS = 0.4
DELAYS = {
    "normal": lambda base: NormalJitterDelay(base, SIGMA_MS),
    "constant": ConstantDelay,
    "lognormal": lambda base: LognormalJitterDelay(base, 0.0, 0.5),
}
#: Enough sends to turn the link hot and leave it in its second block.
WARM = ("udp", HOT_AFTER + JITTER_BLOCK + 6)


class Sink:
    name = "b"

    def __init__(self, loop):
        self.loop = loop
        self.got = []

    def deliver(self, sender, payload):
        self.got.append((self.loop.now, payload))


def quiet(link):
    return (
        link.duplicate_p <= 0.0
        and type(link.delay) is NormalJitterDelay
        and link.delay.sigma_ms > 0.0
        and link.loss.rate() <= 0.0
    )


def fabric(seed=7):
    loop = EventLoop()
    network = Network(loop, RngRegistry(seed))
    sink = Sink(loop)
    network.attach(sink)
    link = Link(
        "a",
        "b",
        delay=DELAYS["normal"](5.0),
        loss=BernoulliLoss(0.0),
        rng=network.rngs.stream(NAME),
    )
    network.add_link(link)
    return loop, network, sink, link


def play(ops, seed=7):
    """Run ``ops`` on a fabric link and on its scalar twin; assert they agree."""
    loop, network, sink, link = fabric(seed)
    rngs = network.rngs
    #: The generator itself, as the registry hands it to a successor link —
    #: reading ``link.rng`` instead would be one of the uses under test.
    gen = rngs.stream(NAME)
    twin_gen = RngRegistry(seed).fresh(NAME)
    twin = Link("a", "b", delay=DELAYS["normal"](5.0), loss=BernoulliLoss(0.0), rng=twin_gen)
    tcp = TcpChannelState()
    links = [link]
    want = LinkStats()
    expected = []
    n = 0

    def in_step():
        assert gen.bit_generator.state == twin_gen.bit_generator.state

    for op, arg in ops:
        if op in ("udp", "tcp"):
            for _ in range(arg):
                now = loop.now
                network.transmit("a", "b", n, op, 100)
                want.sent += 1
                want.bytes_sent += 100
                if op == "udp":
                    plan = udp_transmission_plan(twin)
                    if plan.deliver:
                        expected.append((now + plan.delay_ms, n))
                        expected.extend((now + d, n) for d in plan.duplicates)
                        want.duplicated += len(plan.duplicates)
                    else:
                        want.dropped += 1
                else:
                    plan = tcp_transmission_plan(twin, tcp, now)
                    expected.append((now + plan.delay_ms, n))
                    want.retransmits += plan.retransmits
                if not quiet(twin):
                    in_step()  # a send that drew from the stream rewound first
                n += 1
                loop.run_until(now + 0.3 + 0.011 * (n % 5))
        elif op == "loss":
            link.set_loss_rate(arg)
            twin.set_loss_rate(arg)
        elif op == "duplicate":
            network.set_all_duplicate(arg)
            twin.duplicate_p = arg
        elif op == "rtt":
            link.set_rtt(arg)
            twin.set_rtt(arg)
        elif op == "sigma":  # in place, as scenario steps mutate models
            for each in (link, twin):
                if type(each.delay) is NormalJitterDelay:
                    each.delay.sigma_ms = arg
        elif op == "model":
            link.delay = DELAYS[arg](link.one_way_ms)
            twin.delay = DELAYS[arg](twin.one_way_ms)
        elif op == "draw_delay":
            assert link.draw_delay() == twin.draw_delay()
            in_step()
        elif op == "draw_duplicate":
            assert link.draw_duplicate() == twin.draw_duplicate()
            if twin.duplicate_p > 0.0:  # otherwise no draw, so nothing to rewind for
                in_step()
        elif op == "rng":
            assert link.rng is gen
            in_step()
            assert link.rng.random() == twin_gen.random()
        elif op == "replace":
            link = Link(
                "a",
                "b",
                delay=copy.copy(twin.delay),
                loss=BernoulliLoss(twin.loss.rate()),
                rng=rngs.stream(NAME),
            )
            link.duplicate_p = twin.duplicate_p
            network.add_link(link)
            links.append(link)
            in_step()
        else:  # pragma: no cover
            raise AssertionError(op)
    loop.run()

    assert sorted(sink.got) == sorted(expected)  # exact floats
    total = LinkStats()
    for each in links:
        total = total.merge(each.stats)
    assert total == want
    assert (link.tcp.last_delivery_ms, link.tcp.srtt_ms) == (tcp.last_delivery_ms, tcp.srtt_ms)
    assert link.rng.bit_generator.state == twin_gen.bit_generator.state
    return links


sends = st.tuples(st.sampled_from(["udp", "tcp"]), st.sampled_from([1, 2, 5, HOT_AFTER, JITTER_BLOCK]))
changes = st.one_of(
    st.tuples(st.just("loss"), st.sampled_from([0.0, 0.05, 1.0])),
    st.tuples(st.just("duplicate"), st.sampled_from([0.0, 0.3])),
    st.tuples(st.just("rtt"), st.sampled_from([0.0, 4.0, 10.0, 240.0])),
    st.tuples(st.just("sigma"), st.sampled_from([0.0, SIGMA_MS])),
    st.tuples(st.just("model"), st.sampled_from(sorted(DELAYS))),
    st.tuples(st.sampled_from(["draw_delay", "draw_duplicate", "rng", "replace"]), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(st.one_of(sends, sends, changes), max_size=24), seed=st.integers(0, 2**32))
def test_blocked_link_matches_scalar_twin(ops, seed):
    play([WARM, *ops], seed)


#: One hand-written schedule per thing that must rewind the stream, each
#: starting mid-block on a hot link.
REWINDS = {
    "loss": [WARM, ("loss", 0.05), ("udp", 20), ("loss", 0.0), ("tcp", 20)],
    "tcp_loss": [WARM, ("loss", 0.05), ("tcp", 20)],
    "duplicate": [WARM, ("duplicate", 0.3), ("udp", 20), ("duplicate", 0.0), ("udp", 9)],
    "sigma": [WARM, ("sigma", 0.0), ("udp", 3), ("sigma", SIGMA_MS), ("tcp", 9)],
    "model": [WARM, ("model", "lognormal"), ("tcp", 5), ("model", "normal"), ("udp", 9)],
    "draw": [WARM, ("draw_delay", None), ("udp", 3), ("duplicate", 0.3), ("draw_duplicate", None)],
    "rng": [WARM, ("rng", None), ("udp", 9)],
    "replace": [WARM, ("replace", None), ("udp", 9)],
}


@pytest.mark.parametrize("name", sorted(REWINDS))
def test_rewind_schedules_agree_and_use_blocks(name):
    first = play(REWINDS[name])[0]
    assert first.stats.sent > HOT_AFTER + JITTER_BLOCK  # the warm-up did reach a block


def mutated(func, old, new):
    """``func`` recompiled with ``old`` replaced by ``new`` in its source."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    scope: dict = {}
    exec(source.replace(old, new), func.__globals__, scope)  # noqa: S102
    return scope[func.__name__]


def _no_sync_rng(link):
    return link._rng


MUTANTS = {
    # (owner, attribute, replacement) -> the schedules that must catch it
    "sync redraws one too many": (
        Link, "_sync", mutated(Link._sync, "standard_normal(pos)", "standard_normal(pos + 1)"),
        sorted(REWINDS),
    ),
    "sync redraws one too few": (
        Link, "_sync", mutated(Link._sync, "standard_normal(pos)", "standard_normal(pos - 1)"),
        sorted(REWINDS),
    ),
    "eligibility ignores duplicate_p": (
        Network, "transmit", mutated(Network.transmit, "link.duplicate_p <= 0.0", "True"),
        ["duplicate"],
    ),
    "eligibility ignores the loss rate": (
        Network, "transmit", mutated(Network.transmit, "and loss.p <= 0.0", ""),
        ["loss", "tcp_loss"],
    ),
    "eligibility ignores sigma": (
        Network, "transmit", mutated(Network.transmit, "and delay.sigma_ms > 0.0", ""),
        ["sigma"],
    ),
    "the scalar fallback does not rewind": (
        Network, "transmit", mutated(Network.transmit, "link._sync()", "pass"),
        ["loss", "tcp_loss", "duplicate", "sigma", "model"],
    ),
    "reading rng does not rewind": (
        Link, "rng", property(_no_sync_rng, Link.rng.fset), ["draw", "rng"],
    ),
    "replacement does not rewind": (
        Network, "add_link", mutated(Network.add_link, "old._sync()", "pass"), ["replace"],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_are_killed(name, monkeypatch):
    owner, attr, replacement, schedules = MUTANTS[name]
    monkeypatch.setattr(owner, attr, replacement)
    for schedule in schedules:
        with pytest.raises(AssertionError):
            play(REWINDS[schedule])


# -- the memory bound --------------------------------------------------- #

#: What a buffered link may hold beyond a cold one (bytes): the block as
#: ``array('d')`` plus the saved generator state.
BLOCK_FOOTPRINT_MAX = 1536


def test_cold_and_lossy_links_hold_nothing():
    cold = play([("udp", HOT_AFTER)])[0]  # not yet hot
    lossy = play([("loss", 0.05), ("udp", 3 * JITTER_BLOCK), ("tcp", JITTER_BLOCK)])[0]
    never = Link("a", "b")
    for link in (cold, lossy, never):
        assert link._block is None and link._block_state is None
        assert link._pos == JITTER_BLOCK


def test_buffered_link_footprint_is_bounded():
    loop, network, sink, link = fabric()
    for n in range(HOT_AFTER + 6):
        network.transmit("a", "b", n, "udp", 100)
    assert link._pos < JITTER_BLOCK and len(link._block) == JITTER_BLOCK
    state = link._block_state
    footprint = sys.getsizeof(link._block) + sys.getsizeof(state) + sum(
        sys.getsizeof(v) for v in state.values()
    ) + sum(sys.getsizeof(v) for v in state["state"].values())
    assert footprint < BLOCK_FOOTPRINT_MAX


def test_building_a_cluster_draws_from_no_link_stream():
    cluster = build_cluster(
        ClusterConfig(n_nodes=51, seed=3, rtt_ms=20.0), make_policy_factory("dynatune")
    )
    links = cluster.network.links()
    assert len(links) >= 51 * 50
    for link in links[::97]:
        fresh = cluster.rngs.fresh(f"net/{link.src}->{link.dst}")
        assert link._block is None
        assert link._rng.bit_generator.state == fresh.bit_generator.state


# -- a regime change, end to end ---------------------------------------- #

#: sha256 of the full trace of the run below, captured at the parent commit
#: (scalar draws only).
LOSS_WINDOW_DIGEST = "fcd25412b0fe5c84dba58df9ca994557d40af9d42b802b6ab0f9a5dcb437d176"


def test_loss_window_trace_digest_is_the_parents():
    cluster = build_cluster(
        ClusterConfig(n_nodes=5, seed=11, rtt_ms=40.0), make_policy_factory("dynatune")
    )
    cluster.start()
    hot = []

    def set_loss(p):
        hot.append(sum(link._pos < JITTER_BLOCK for link in cluster.network.links()))
        cluster.network.set_all_loss(p)

    # Late enough for the leader's links to have turned hot before the window.
    cluster.loop.schedule_at(10_000.0, lambda: set_loss(0.05))
    cluster.loop.schedule_at(12_000.0, lambda: set_loss(0.0))
    cluster.loop.run_until(16_000.0)
    set_loss(0.0)
    assert hot[0] > 0 and hot[1] == 0 and hot[2] > 0  # blocks before and after, none inside
    digest = hashlib.sha256()
    for r in cluster.trace.all():
        digest.update(f"{r.time!r}|{r.node}|{r.kind}|{sorted(r.fields.items())!r}\n".encode())
    assert digest.hexdigest() == LOSS_WINDOW_DIGEST
