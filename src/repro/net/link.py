"""A directed network link: delay + loss + duplication.

Each ordered node pair ``(a, b)`` has its own :class:`Link`, mirroring the
per-interface ``tc`` shaping of the paper's testbed (delay and loss are set
per container, i.e. per direction).  A link is transport-agnostic: it
answers "would this packet drop?" and "how long would one transmission
take?"; :mod:`repro.net.transport` composes those primitives into UDP and
TCP semantics.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.net.delay_models import ConstantDelay, DelayModel
from repro.net.loss_models import LossModel, NoLoss
from repro.net.stats import LinkStats
from repro.net.transport import TcpChannelState

__all__ = ["Link"]

#: Standard normals a hot quiet link draws at once.
JITTER_BLOCK = 64
#: Sends after which a link counts as hot.  Most links of a large cluster
#: carry only election traffic (at 51 nodes, 2 250 of 2 550 see under a
#: dozen sends per leader change): a block on each is memory for no speed.
HOT_AFTER = 16


class Link:
    """One directed link with mutable impairment parameters.

    Args:
        src, dst: endpoint names (for diagnostics).
        delay: one-way delay model.  Defaults to a constant 0.5 ms.
        loss: loss process.  Defaults to lossless.
        rng: random stream for this link's draws.

    ``duplicate_p``, the probability a *delivered* UDP packet is duplicated
    (netem ``duplicate``), starts at 0; :meth:`Network.set_duplicate
    <repro.net.network.Network.set_duplicate>` turns it on.  The paper's
    measurement design handles duplicates explicitly (§III-C2).
    """

    __slots__ = (
        "src",
        "dst",
        "_delay",
        "_loss",
        "duplicate_p",
        "_rng",
        "_block",
        "_pos",
        "_block_state",
        "stats",
        "tcp",
        "up",
        "should_drop",
        "sample_delay",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        *,
        delay: DelayModel | None = None,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.src = src
        self.dst = dst
        # The delay/loss setters also (re)bind the hot-path methods below.
        self.delay = delay if delay is not None else ConstantDelay(0.5)
        self.loss = loss if loss is not None else NoLoss()
        self.duplicate_p = 0.0
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Pre-drawn jitter: ``_block[_pos:]`` are the stream's next standard
        #: normals, ``_block_state`` the generator state the block was drawn
        #: from.  At ``_pos == JITTER_BLOCK`` nothing is pre-drawn and the
        #: generator is where scalar draws would have left it.
        self._block: array[float] | None = None
        self._pos = JITTER_BLOCK
        self._block_state: dict[str, object] | None = None
        self.stats = LinkStats()
        #: The TCP connection riding this directed pair (FIFO horizon and
        #: RTT estimate); ``Network.add_link`` carries it over when a link
        #: is replaced, as the connection outlives a re-shaped path.
        self.tcp = TcpChannelState()
        #: Administrative state; a downed link drops everything (partitions).
        self.up = True

    # -- models ------------------------------------------------------------ #
    # ``should_drop`` / ``sample_delay`` are the models' bound methods,
    # cached so the per-message fast path pays one attribute load instead
    # of two plus a wrapper call.  Impairment *changes* mutate the model
    # objects in place (set_rtt / set_loss_rate), which needs no rebind;
    # model *replacement* goes through these setters, which rebind.

    @property
    def delay(self) -> DelayModel:
        return self._delay

    @delay.setter
    def delay(self, model: DelayModel) -> None:
        self._delay = model
        self.sample_delay = model.sample

    @property
    def loss(self) -> LossModel:
        return self._loss

    @loss.setter
    def loss(self, model: LossModel) -> None:
        self._loss = model
        self.should_drop = model.should_drop

    # -- impairment control (what scenario steps turn) --------------------- #

    def set_rtt(self, rtt_ms: float) -> None:
        """Set the round-trip time of the *path* this link belongs to.

        One directed link contributes half the RTT; schedules usually call
        this symmetrically on both directions via the Network helper.
        """
        if rtt_ms < 0.0:
            raise ValueError(f"rtt must be >= 0 ms, got {rtt_ms!r}")
        self.delay.set_base(rtt_ms / 2.0)

    def set_loss_rate(self, p: float) -> None:
        self.loss.set_rate(p)

    @property
    def one_way_ms(self) -> float:
        """Current base one-way delay (ms)."""
        return self.delay.base_ms

    @property
    def rtt_ms(self) -> float:
        """Nominal path RTT implied by this link's base delay."""
        return self.delay.base_ms * 2.0

    # -- the random stream ------------------------------------------------- #
    # While a link is *quiet* -- no loss or duplicate draw can touch the
    # stream, Gaussian jitter -- a send consumes exactly one standard normal,
    # and ``Network.transmit`` serves those from a block drawn in one numpy
    # call: the same values, in the same order, as that many scalar calls.
    # Every other use of the stream goes through :attr:`rng`, which first
    # rewinds the generator to the scalar position.

    @property
    def rng(self) -> np.random.Generator:
        self._sync()
        return self._rng

    @rng.setter
    def rng(self, rng: np.random.Generator) -> None:
        self._sync()
        self._rng = rng

    def _refill(self) -> float:
        """The next standard normal of a quiet send whose block has run out
        (a link not yet hot draws a scalar and holds nothing)."""
        rng = self._rng
        if self.stats.sent <= HOT_AFTER:
            return rng.standard_normal()
        self._block_state = rng.bit_generator.state
        block = self._block = array("d", rng.standard_normal(JITTER_BLOCK).tobytes())
        self._pos = 1
        return block[0]

    def _sync(self) -> None:
        """Rewind: back to the block's start, forward by the count consumed."""
        pos = self._pos
        if pos < JITTER_BLOCK:
            self._rng.bit_generator.state = self._block_state
            self._rng.standard_normal(pos)
            self._block = self._block_state = None
            self._pos = JITTER_BLOCK

    # -- primitives used by the transports --------------------------------- #

    def draw_drop(self) -> bool:
        """Sample the loss process once (one physical transmission)."""
        return self.loss.should_drop(self.rng)

    def draw_delay(self) -> float:
        """Sample a one-way propagation delay (ms)."""
        return self.delay.sample(self.rng)

    def draw_duplicate(self) -> bool:
        if self.duplicate_p <= 0.0:
            return False
        return bool(self.rng.random() < self.duplicate_p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return (
            f"Link({self.src}->{self.dst}, {self.delay!r}, {self.loss!r}, {state})"
        )
