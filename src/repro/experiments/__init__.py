"""Experiment modules: one per paper figure, and the fault grids.

Every figure (``fig4_election``, ``fig5_throughput``, ``fig6_rtt``,
``fig7_loss``, ``fig8_geo``, ``fig_scale``), the scenario matrix
(``scenario_matrix``) and the §III design ablations (``ablations``) is a
:class:`~repro.experiments.grid.Grid`, exactly like the fault grids: a
frozen config dataclass for one cell (a system, times the experiment's
own axis: RTT pattern, cluster size, scenario or ablation study), a
``run_one`` worker returning that cell's result record, and a ``GRID``
whose ``full`` base config is the paper's experiment (a figure config's
defaults are the paper's parameters) and whose ``smoke`` is the CI
budget.  ``python -m repro.experiments.<grid>`` prints its table with the
shared ``--smoke`` / ``--digest`` / ``--system`` flags.  Only
``fuzz_campaign``, which runs and shrinks generated trials rather than
cells, has its own CLI.

Fig. 8 is Fig. 4's grid: ``fig8_geo`` holds only its ``GRID``, whose
``full`` and ``smoke`` are geo ``Fig4Config``s.  Cross-system quantities
are functions over records (``fig4_election.reduction``,
``fig5_throughput.peak_gap``).

``python -m repro.experiments.report`` runs every figure's grid and
prints measured-vs-paper numbers for every figure.
"""

from repro.experiments.common import SYSTEMS, make_policy_factory

__all__ = ["SYSTEMS", "make_policy_factory"]
