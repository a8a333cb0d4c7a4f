"""Named deterministic random streams.

Every source of randomness in an experiment — per-link jitter, per-link loss,
per-node election randomization, workload arrivals, fault timing — draws from
its own named stream.  Streams are derived from a single experiment seed and
a stable string name, so:

* two runs with the same seed are bit-identical;
* adding a new consumer (a new link, say) does not perturb the draws any
  existing consumer sees — unlike ``SeedSequence.spawn``, whose children
  depend on spawn *order*.

Derivation hashes ``"{seed}:{name}"`` with SHA-256 and feeds 128 bits of the
digest to :class:`numpy.random.PCG64`.  numpy generators are used throughout
because the hot consumers draw in blocks — a node's election-timeout
uniforms, a quiet link's jitter normals — and ``rng.random(n)`` consumes
the stream exactly like ``n`` scalar draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "RngRegistry"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 128-bit child seed from a root seed and a stream name.

    The mapping is stable across processes and Python versions (unlike
    ``hash()``, which is salted).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:16], "little")


class RngRegistry:
    """Factory for named :class:`numpy.random.Generator` streams.

    Example:
        >>> rngs = RngRegistry(seed=42)
        >>> jitter = rngs.stream("link/n1->n2/delay")
        >>> election = rngs.stream("raft/n1/election")
        >>> float(jitter.random()) != float(election.random())
        True
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object (state advances across calls), which is what stateful
        consumers like link jitter models want.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(derive_seed(self._seed, name)))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name`` ignoring any cached one.

        Used by tests that need to replay a stream from its origin.
        """
        return np.random.Generator(np.random.PCG64(derive_seed(self._seed, name)))

    def names(self) -> list[str]:
        return sorted(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={len(self._streams)})"
