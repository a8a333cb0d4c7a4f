"""Per-link send counters.

Experiments report message overheads from them (the paper argues
Dynatune adds *no additional communication*, §I — the ``sent`` and
``bytes_sent`` totals let :mod:`repro.experiments` check that claim
directly); tests compare ``dropped``, ``duplicated`` and ``retransmits``
with the :mod:`repro.net.transport` reference plans.
"""

from __future__ import annotations

import dataclasses

__all__ = ["LinkStats"]


@dataclasses.dataclass(slots=True)
class LinkStats:
    """Counters for one directed link."""

    sent: int = 0
    dropped: int = 0
    duplicated: int = 0
    retransmits: int = 0
    bytes_sent: int = 0

    def merge(self, other: "LinkStats") -> "LinkStats":
        """Return a new LinkStats with summed counters."""
        return LinkStats(
            sent=self.sent + other.sent,
            dropped=self.dropped + other.dropped,
            duplicated=self.duplicated + other.duplicated,
            retransmits=self.retransmits + other.retransmits,
            bytes_sent=self.bytes_sent + other.bytes_sent,
        )
