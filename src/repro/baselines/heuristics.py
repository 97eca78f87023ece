"""The heuristic baselines by name, with their one set of parameters.

The supervisor's fallback chain (:class:`repro.robust.supervisor.
SolveSupervisor`) runs heuristics through :func:`run_heuristic`; table
1's annealing row calls :func:`repro.baselines.simulated_annealing`
directly.
"""

from __future__ import annotations

from repro.baselines import annealing, greedy
from repro.baselines.common import evaluate_cost

__all__ = ["HEURISTICS", "run_heuristic"]

#: The heuristic names :func:`run_heuristic` accepts.
HEURISTICS = ("greedy", "annealing")


def run_heuristic(name: str, tasks, arch, objective: str = "trt",
                  medium: str | None = None):
    """Run heuristic ``name``; returns ``(feasible, allocation, cost)``.

    ``objective``/``medium`` as in :func:`evaluate_cost`, which scores
    every feasible allocation (None cost otherwise).  Annealing walks
    800 iterations seeded with 1.  An unknown name raises
    :class:`ValueError`.
    """
    if name == "greedy":
        res = greedy.greedy_first_fit(tasks, arch)
        cost = (
            evaluate_cost(tasks, arch, res.allocation, objective, medium)
            if res.feasible else None
        )
        return res.feasible, res.allocation, cost
    if name != "annealing":
        raise ValueError(f"unknown heuristic {name!r}")
    res = annealing.simulated_annealing(
        tasks, arch, objective=objective, medium=medium,
        iterations=800, seed=1,
    )
    return res.feasible, res.allocation, res.cost
