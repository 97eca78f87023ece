"""Heuristic and exhaustive baseline allocators.

The paper's headline experiment (table 1) compares against the simulated
annealing allocator of Tindell/Burns/Wellings [5], which found TRT =
8.7 ms where the SAT method proves the optimum 8.55 ms.  This package
provides:

- :mod:`repro.baselines.common` -- deriving a complete
  :class:`repro.analysis.Allocation` (priorities, routes, slot table)
  from a bare task->ECU map, shared by all baselines,
- :mod:`repro.baselines.annealing` -- simulated annealing in the style
  of [5],
- :mod:`repro.baselines.branch_bound` -- exhaustive branch-and-bound
  (optimal; used to cross-validate the SAT route on small instances),
- :mod:`repro.baselines.greedy` -- first-fit-decreasing utilization
  balancing,
- :mod:`repro.baselines.heuristics` -- the heuristics by name, as the
  supervisor and the portfolio run them.
"""

from repro.baselines.annealing import AnnealingResult, simulated_annealing
from repro.baselines.branch_bound import branch_and_bound
from repro.baselines.common import derive_allocation, evaluate_cost
from repro.baselines.genetic import GeneticResult, genetic_allocator
from repro.baselines.greedy import greedy_first_fit
from repro.baselines.heuristics import HEURISTICS, run_heuristic

__all__ = [
    "simulated_annealing",
    "AnnealingResult",
    "branch_and_bound",
    "greedy_first_fit",
    "genetic_allocator",
    "GeneticResult",
    "derive_allocation",
    "evaluate_cost",
    "HEURISTICS",
    "run_heuristic",
]
