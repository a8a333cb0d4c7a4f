"""Dynatune runtime configuration (§III-E's runtime arguments).

The paper exposes four runtime arguments — ``σ`` (safety factor ``s``),
``x`` (arrival probability), ``minListSize`` and ``maxListSize``.
:class:`DynatuneConfig` carries those plus the two an experiment turns:
``fixed_k`` (the paper's Fix-K variant) and ``fallback_on_timeout`` (an
ablation), documented inline with their paper-faithful defaults.  What
never took a second value — the defaults shared with the Raft baseline
(§IV-A), the clamps the formulas need, the UDP heartbeat channel and the
sample-gap reset — are module constants or fixed behaviour, not options.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["DynatuneConfig"]

#: Fallback ``Et`` used during Step 0 and after an election timeout
#: (paper: 1000 ms, same as Raft).
DEFAULT_ELECTION_TIMEOUT_MS = 1000.0
#: Fallback ``h`` (paper: 100 ms).
DEFAULT_HEARTBEAT_INTERVAL_MS = 100.0
#: Lower clamp on the tuned ``Et`` — a zero-length timer would fire before
#: any heartbeat could possibly arrive.  There is no upper clamp (the
#: paper's behaviour).
ET_FLOOR_MS = 10.0
#: Lower clamp on the tuned ``h``: guards against the §II-B
#: resource-exhaustion regime if measured loss approaches 1.
H_FLOOR_MS = 1.0
#: Upper clamp on heartbeat redundancy ``K``.
K_MAX = 50


@dataclasses.dataclass(slots=True, frozen=True)
class DynatuneConfig:
    """Parameters of the Dynatune tuning layer.

    Attributes:
        safety_factor: ``s`` in ``Et = μ + s·σ`` (paper: 2).
        arrival_probability: ``x`` in ``1 − p^K ≥ x`` (paper: 0.999).
        min_list_size: RTT samples required before tuning starts (paper: 10).
        max_list_size: bound on the RTTs/ids lists (paper: 1000).
        fixed_k: if set, disables ``h`` auto-tuning and pins ``K`` — this is
            the paper's **Fix-K** comparison variant (§IV-C2, ``K = 10``).
        fallback_on_timeout: the §III-B rule — discard measurements and
            revert to defaults when the election timer expires.  ``False``
            is an **ablation** (keep the tuned parameters through
            suspected failures), measured by the ``fallback`` study of
            :mod:`repro.experiments.ablations`.
    """

    safety_factor: float = 2.0
    arrival_probability: float = 0.999
    min_list_size: int = 10
    max_list_size: int = 1000
    fixed_k: int | None = None
    fallback_on_timeout: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.safety_factor < math.inf):
            raise ValueError(
                f"safety_factor must be finite and >= 0, got {self.safety_factor!r}"
            )
        if not (0.0 < self.arrival_probability < 1.0):
            raise ValueError(
                f"arrival_probability must be in (0, 1), got {self.arrival_probability!r}"
            )
        if self.min_list_size < 1:
            raise ValueError(f"min_list_size must be >= 1, got {self.min_list_size!r}")
        if self.max_list_size < self.min_list_size:
            raise ValueError(
                "max_list_size must be >= min_list_size "
                f"({self.max_list_size!r} < {self.min_list_size!r})"
            )
        if self.fixed_k is not None and self.fixed_k < 1:
            raise ValueError(f"fixed_k must be >= 1, got {self.fixed_k!r}")
