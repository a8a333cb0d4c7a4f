"""Experiment modules: one per paper figure.

Each module exposes:

* a frozen config dataclass whose ``quick()`` constructor takes its
  repetition counts and dwells from the ``REPRO_SCALE`` preset;
* ``run(config) -> <Fig*Result>`` — executes the experiment and returns
  structured series/summaries;
* ``main()`` — runs at the scale selected by ``REPRO_SCALE`` (``quick`` |
  ``paper``) and prints the same rows/series the paper reports.

Fig. 8 is Fig. 4's experiment: ``fig8_geo`` holds only its ``Fig4Config``
preset, ``quick()``, and its ``main()``.

``python -m repro.experiments.report`` prints measured-vs-paper numbers
for every figure.
"""

from repro.experiments.common import SYSTEMS, Scale, get_scale, make_policy_factory

__all__ = ["SYSTEMS", "Scale", "get_scale", "make_policy_factory"]
