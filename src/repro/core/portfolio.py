"""Portfolio solving: heuristics next to the exact method.

Runs the greedy, annealing and genetic baselines (cheap) and the SAT
optimizer and reports everything: the heuristics provide instant upper
bounds, the SAT route the proven optimum.  The three baselines run first,
as one sweep through :func:`repro.fabric.fabric_sweep` -- in
``default_processes()`` worker processes, so they run in parallel with
each other, or inline when that is one and no ``cell_timeout`` asks for
a killable worker.  The sweep returns before the exact solve starts, so
nothing overlaps the SAT search.

Supervision: ``budget`` bounds the exact route end-to-end through the
:class:`repro.robust.supervisor.SolveSupervisor` escalation chain
(heuristic fallback disabled -- the portfolio already runs its own
heuristics), and ``cell_timeout``/``retries`` bound each baseline cell
(its lease stops renewing past the timeout, the worker is killed and the
cell re-run up to ``retries`` times), so neither a hung probe nor a hung
worker can stall the portfolio.  Failed baseline cells keep their full
error traceback and elapsed time in :class:`PortfolioEntry`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines.common import evaluate_cost
from repro.core.allocator import AllocationResult, Allocator
from repro.core.api import SolveRequest, reject_legacy
from repro.core.objectives import Objective, objective_spec
from repro.fabric import default_processes, fabric_sweep
from repro.model.architecture import Architecture
from repro.model.task import TaskSet
from repro.robust.supervisor import SolveSupervisor

__all__ = [
    "PortfolioEntry",
    "PortfolioResult",
    "PortfolioInvariantError",
    "solve_portfolio",
]


class PortfolioInvariantError(RuntimeError):
    """A heuristic reported a cost below the *certified* optimum.

    That can only mean a bug (in the encoder, the SAT stack, or the
    heuristic's cost evaluation), so it must fail loudly -- and unlike an
    ``assert`` it survives ``python -O``.
    """


@dataclass
class PortfolioEntry:
    """One contender's outcome."""

    method: str
    feasible: bool
    cost: int | None
    seconds: float
    optimal: bool = False
    #: Full traceback of a failed contender (None on success).
    error: str | None = None


@dataclass
class PortfolioResult:
    entries: list[PortfolioEntry] = field(default_factory=list)
    exact: AllocationResult | None = None

    @property
    def best(self) -> PortfolioEntry | None:
        feas = [e for e in self.entries if e.feasible]
        return min(feas, key=lambda e: e.cost) if feas else None


def _baseline_cell(param):
    method, system_blob, spec = param
    from repro.io import system_from_dict

    tasks, arch = system_from_dict(system_blob)
    objective, medium = spec
    t0 = time.perf_counter()
    if method == "greedy":
        from repro.baselines.greedy import greedy_first_fit

        out = greedy_first_fit(tasks, arch)
        cost = (
            evaluate_cost(tasks, arch, out.allocation, objective, medium)
            if out.feasible
            else None
        )
        return (out.feasible, cost, time.perf_counter() - t0)
    if method == "annealing":
        from repro.baselines.annealing import simulated_annealing

        out = simulated_annealing(
            tasks, arch, objective=objective, medium=medium,
            iterations=800, seed=1,
        )
        return (out.feasible, out.cost, time.perf_counter() - t0)
    if method == "genetic":
        from repro.baselines.genetic import genetic_allocator

        out = genetic_allocator(
            tasks, arch, objective=objective, medium=medium,
            population=24, generations=25, seed=1,
        )
        return (out.feasible, out.cost, time.perf_counter() - t0)
    raise ValueError(method)


def solve_portfolio(
    tasks: TaskSet,
    arch: Architecture,
    objective: Objective | SolveRequest | None = None,
    request: SolveRequest | None = None,
    **legacy,
) -> PortfolioResult:
    """Run the heuristics, then the exact SAT route, and report both.

    Accepts a :class:`~repro.core.api.SolveRequest` (positionally or as
    ``request=``); the legacy per-kwarg shim is gone, and passing one
    raises :class:`TypeError` with a migration hint.  ``request.
    cell_timeout`` / ``retries`` bound the baseline sweep's cells.

    Heuristic contenders run first, as one fabric sweep (see the module
    docstring for when it uses worker processes); the SAT optimization
    then runs in this process, under the supervisor's escalation chain
    when a ``budget`` is given.  A heuristic cost below
    a *certified* optimum raises :class:`PortfolioInvariantError`; an
    anytime (unproven) exact bound may legitimately be beaten, so it is
    not checked against.
    """
    from repro.io import system_to_dict

    if isinstance(objective, SolveRequest):
        if request is not None:
            raise TypeError(
                "pass the SolveRequest positionally or as request=, not both"
            )
        request, objective = objective, None
    reject_legacy("solve_portfolio", legacy)
    if request is None:
        request = SolveRequest()
    if objective is not None:
        request = request.merged(objective=objective)
    objective = request.objective

    result = PortfolioResult()
    spec = objective_spec(objective)
    blob = system_to_dict(tasks, arch)
    cells = [(m, blob, spec) for m in ("greedy", "annealing", "genetic")]
    processes = default_processes()
    inline = processes == 1 and request.cell_timeout is None
    sweep = fabric_sweep(
        _baseline_cell, cells,
        workers=0 if inline else processes,
        job_timeout=request.cell_timeout,
        max_attempts=request.retries + 1,
    ).results

    t0 = time.perf_counter()
    exact_error: str | None = None
    if request.budget is None:
        exact = Allocator(tasks, arch, request.config).minimize(
            request=request
        )
    else:
        supervised = SolveSupervisor(
            tasks, arch,
            # The portfolio already runs its own heuristics.
            request=request.merged(heuristics=()),
        ).solve()
        exact = supervised.result
        if exact is None:
            failed = [s for s in supervised.stages if s.status == "failed"]
            exact_error = failed[-1].detail if failed else supervised.status
    exact_secs = time.perf_counter() - t0
    result.exact = exact

    exact_proven = (
        exact is not None and exact.feasible and exact.cost is not None
        and exact.proven
    )
    for cell, res in zip(cells, sweep):
        if not res.ok:
            result.entries.append(
                PortfolioEntry(cell[0], False, None, res.seconds,
                               error=res.error)
            )
            continue
        feasible, cost, secs = res.value
        if feasible and exact_proven and cost < exact.cost:
            raise PortfolioInvariantError(
                f"heuristic {cell[0]} beat the proven optimum: "
                f"{cost} < {exact.cost}"
            )
        result.entries.append(
            PortfolioEntry(cell[0], feasible, cost, secs)
        )
    result.entries.append(
        PortfolioEntry(
            "sat",
            bool(exact is not None and exact.feasible),
            exact.cost if exact is not None else None,
            exact_secs,
            optimal=exact_proven,
            error=exact_error,
        )
    )
    return result
