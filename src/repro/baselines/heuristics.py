"""The heuristic baselines by name, with their one set of parameters.

The supervisor's fallback chain (:class:`repro.robust.supervisor.
SolveSupervisor`) and the portfolio's baseline sweep (:mod:`repro.core.
portfolio`) both run heuristics through :func:`run_heuristic`, so they
run the same walks and report the same costs.
"""

from __future__ import annotations

from repro.baselines import annealing, genetic, greedy
from repro.baselines.common import evaluate_cost

__all__ = ["HEURISTICS", "run_heuristic"]

#: The heuristic names :func:`run_heuristic` accepts.
HEURISTICS = ("greedy", "annealing", "genetic")


def run_heuristic(name: str, tasks, arch, objective: str = "trt",
                  medium: str | None = None):
    """Run heuristic ``name``; returns ``(feasible, allocation, cost)``.

    ``objective``/``medium`` as in :func:`evaluate_cost`, which scores
    every feasible allocation (None cost otherwise).  Annealing walks
    800 iterations, the genetic allocator 25 generations of 24; both
    are seeded with 1.  An unknown name raises :class:`ValueError`.
    """
    if name == "greedy":
        res = greedy.greedy_first_fit(tasks, arch)
        cost = (
            evaluate_cost(tasks, arch, res.allocation, objective, medium)
            if res.feasible else None
        )
        return res.feasible, res.allocation, cost
    if name == "annealing":
        res = annealing.simulated_annealing(
            tasks, arch, objective=objective, medium=medium,
            iterations=800, seed=1,
        )
    elif name == "genetic":
        res = genetic.genetic_allocator(
            tasks, arch, objective=objective, medium=medium,
            population=24, generations=25, seed=1,
        )
    else:
        raise ValueError(f"unknown heuristic {name!r}")
    return res.feasible, res.allocation, res.cost
