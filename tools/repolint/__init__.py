"""repolint — the repository's AST-based invariant checker.

The reproduction's headline claims (byte-identical digests for any
``REPRO_JOBS``, the §IV-A detection-time results, the fuzz oracle's
verdicts) rest on code invariants that no general-purpose linter knows
about: simulation code must never read wall clocks or unseeded RNGs,
hot-path message classes must be slotted and allocation-free, every
emitted trace kind must be registered so safety checkers and trace queries
cannot be blinded by a typo, every message class must have a dispatch
handler, and protocol state must only change through its designated
mutators.  ``repolint`` turns each of those conventions into a build
failure.

Usage::

    python -m tools.repolint src/                # human-readable report
    python -m tools.repolint src/ --json         # machine-readable report
    python -m tools.repolint src/ --write-trace-registry
    python -m tools.repolint src/ --write-baseline

See ``tools/repolint/rules/`` for the rule families and README.md
("Static analysis & invariants") for the suppression/baseline workflow.
"""

from tools.repolint.config import DEFAULT_CONFIG, RepolintConfig
from tools.repolint.engine import (
    Baseline,
    FileContext,
    Finding,
    Project,
    Rule,
    run_repolint,
)

__all__ = [
    "Baseline",
    "DEFAULT_CONFIG",
    "FileContext",
    "Finding",
    "Project",
    "RepolintConfig",
    "Rule",
    "run_repolint",
]
