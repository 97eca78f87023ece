"""Greedy first-fit-decreasing allocator.

The simplest baseline: sort tasks by decreasing utilization, place each
on the candidate ECU with the lowest current utilization that keeps the
partial system schedulable.  Fast, frequently feasible on slack systems,
and a useful warm start / sanity bar for the other methods.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.allocation import Allocation
from repro.analysis.feasibility import check_allocation
from repro.baselines.common import derive_allocation
from repro.model.architecture import Architecture
from repro.model.task import TaskSet

__all__ = ["GreedyResult", "greedy_first_fit"]


@dataclass
class GreedyResult:
    feasible: bool
    allocation: Allocation | None
    placement: dict[str, str]


def greedy_first_fit(tasks: TaskSet, arch: Architecture) -> GreedyResult:
    """First-fit decreasing by utilization with schedulability look-back.

    Returns an infeasible result (with the partial placement) when some
    task cannot be placed anywhere without breaking the analysis.
    """
    order = sorted(
        tasks.names(),
        key=lambda n: -min(
            tasks[n].wcet[p] for p in tasks[n].candidate_ecus(arch)
        )
        / tasks[n].period,
    )
    placement: dict[str, str] = {}
    util: dict[str, float] = {}
    placed = TaskSet(
        [tasks[n] for n in tasks.names()], name="greedy-probe"
    )
    for name in order:
        task = tasks[name]
        options = sorted(
            task.candidate_ecus(arch), key=lambda p: util.get(p, 0.0)
        )
        chosen = None
        for ecu in options:
            if any(
                placement.get(o) == ecu for o in task.separated_from
            ):
                continue
            u = task.utilization_on(ecu)
            if util.get(ecu, 0.0) + u > 1.0:
                continue
            trial = dict(placement)
            trial[name] = ecu
            sub = placed.subset(list(trial), name="greedy-trial")
            alloc = derive_allocation(sub, arch, trial)
            if alloc is None:
                continue
            if check_allocation(sub, arch, alloc).schedulable:
                chosen = ecu
                break
        if chosen is None:
            return GreedyResult(False, None, placement)
        placement[name] = chosen
        util[chosen] = util.get(chosen, 0.0) + task.utilization_on(chosen)
    alloc = derive_allocation(tasks, arch, placement)
    if alloc is None:
        return GreedyResult(False, None, placement)
    feas = check_allocation(tasks, arch, alloc).schedulable
    return GreedyResult(feas, alloc if feas else None, placement)
