"""Sensitivity analysis of concrete allocations.

Once the optimizer has fixed an allocation, two robustness questions
matter in practice (and are classic follow-ups to RTA-based design):

- **global WCET margin**: by what common factor can *all* execution
  times grow before the allocation stops being schedulable?
- **per-task slack**: how much extra WCET can one task absorb?

Both are answered by binary search over the independent feasibility
checker; no SAT involvement, so they run in milliseconds and can be
used inside design-space exploration loops.
"""

from __future__ import annotations

from repro.analysis.allocation import Allocation
from repro.analysis.feasibility import check_allocation
from repro.model.architecture import Architecture
from repro.model.task import Task, TaskSet

__all__ = ["wcet_scaling_margin", "task_wcet_slack"]


def _scaled(tasks: TaskSet, percent: int, only: str | None = None,
            extra: int = 0) -> TaskSet:
    """Copy of the task set with WCETs scaled to ``percent``% (rounded
    up), or with ``extra`` ticks added to task ``only``."""
    out: list[Task] = []
    for t in tasks:
        if only is None:
            wcet = {
                p: max(1, -((-c * percent) // 100))
                for p, c in t.wcet.items()
            }
        elif t.name == only:
            wcet = {p: c + extra for p, c in t.wcet.items()}
        else:
            wcet = dict(t.wcet)
        # Keep deadlines valid if scaling pushed WCET past them; the
        # checker will then (correctly) report infeasibility.
        out.append(
            Task(
                name=t.name,
                period=t.period,
                wcet=wcet,
                deadline=t.deadline,
                messages=t.messages,
                allowed=t.allowed,
                separated_from=t.separated_from,
                release_jitter=t.release_jitter,
                memory=t.memory,
            )
        )
    return TaskSet(out, name=f"{tasks.name}@{percent}%")


def wcet_scaling_margin(
    tasks: TaskSet,
    arch: Architecture,
    alloc: Allocation,
    max_percent: int = 400,
) -> int:
    """Largest integer percentage P such that scaling every WCET to P%
    keeps ``alloc`` schedulable (>= 100 for schedulable inputs; the
    answer is capped at ``max_percent``)."""
    if not check_allocation(tasks, arch, alloc).schedulable:
        raise ValueError("allocation is not schedulable at 100%")
    lo, hi = 100, max_percent
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if check_allocation(_scaled(tasks, mid), arch, alloc).schedulable:
            lo = mid
        else:
            hi = mid - 1
    return lo


def task_wcet_slack(
    tasks: TaskSet,
    arch: Architecture,
    alloc: Allocation,
    task: str,
    max_extra: int | None = None,
) -> int:
    """Largest number of ticks that can be added to ``task``'s WCET (on
    every candidate ECU) with the allocation staying schedulable."""
    if task not in tasks.tasks:
        raise KeyError(task)
    if not check_allocation(tasks, arch, alloc).schedulable:
        raise ValueError("allocation is not schedulable as given")
    t = tasks[task]
    if max_extra is None:
        max_extra = t.deadline  # growth beyond the deadline is hopeless
    lo, hi = 0, max_extra

    def ok(extra: int) -> bool:
        if min(t.wcet.values()) + extra > t.deadline:
            return False
        scaled = _scaled(tasks, 100, only=task, extra=extra)
        return check_allocation(scaled, arch, alloc).schedulable

    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo
