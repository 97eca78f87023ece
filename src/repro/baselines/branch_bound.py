"""Exhaustive branch-and-bound allocator.

Optimal like the SAT route (on the same derived-structure search space:
deadline-monotonic priorities, shortest-path routes, minimal slot
tables), but explores task->ECU maps directly.  Used to cross-validate
the SAT optimizer on small instances and as the classic complete-search
baseline the paper cites ([10]).

Pruning:

- partial placements whose per-ECU utilization already exceeds 1,
- separation violations,
- a lower bound on the objective (current slot table cost) that already
  matches or exceeds the incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.allocation import Allocation
from repro.analysis.feasibility import check_allocation
from repro.baselines.common import derive_allocation, evaluate_cost
from repro.model.architecture import Architecture
from repro.model.task import TaskSet

__all__ = ["BranchBoundResult", "branch_and_bound"]


@dataclass
class BranchBoundResult:
    feasible: bool
    cost: int | None
    allocation: Allocation | None
    explored: int


def branch_and_bound(
    tasks: TaskSet,
    arch: Architecture,
    objective: str = "trt",
    medium: str | None = None,
    node_limit: int = 1_000_000,
) -> BranchBoundResult:
    """Optimal allocation by exhaustive search with pruning.

    Raises RuntimeError when ``node_limit`` is exceeded (use the SAT
    route for anything beyond toy sizes).
    """
    names = tasks.names()
    # Branch on most-constrained tasks first.
    names = sorted(
        names, key=lambda n: len(tasks[n].candidate_ecus(arch))
    )
    candidates = {n: tasks[n].candidate_ecus(arch) for n in names}
    for n, c in candidates.items():
        if not c:
            raise ValueError(f"task {n} has no candidate ECU")

    best_cost: int | None = None
    best_alloc: Allocation | None = None
    explored = 0
    util: dict[str, float] = {}
    placement: dict[str, str] = {}

    def dfs(idx: int) -> None:
        nonlocal best_cost, best_alloc, explored
        explored += 1
        if explored > node_limit:
            raise RuntimeError("branch-and-bound node limit exceeded")
        if idx == len(names):
            alloc = derive_allocation(tasks, arch, placement)
            if alloc is None:
                return
            report = check_allocation(tasks, arch, alloc)
            if not report.schedulable:
                return
            cost = evaluate_cost(tasks, arch, alloc, objective, medium)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_alloc = alloc
            return
        name = names[idx]
        task = tasks[name]
        for ecu in candidates[name]:
            # Separation pruning.
            if any(
                placement.get(other) == ecu
                for other in task.separated_from
            ):
                continue
            # Utilization pruning.
            u = task.utilization_on(ecu)
            if util.get(ecu, 0.0) + u > 1.0:
                continue
            placement[name] = ecu
            util[ecu] = util.get(ecu, 0.0) + u
            dfs(idx + 1)
            util[ecu] -= u
            del placement[name]

    dfs(0)
    return BranchBoundResult(
        feasible=best_cost is not None,
        cost=best_cost,
        allocation=best_alloc,
        explored=explored,
    )
