"""Metamorphic relations of the exact optimizer (monotone schedulable
regions): raising one task's WCETs never lowers the proven optimum, and
never makes an infeasible system feasible; adding a candidate ECU to
one task's ``allowed`` set never raises the proven optimum, and never
makes a feasible system infeasible.

The objective is the sum of response times, which moves with every
WCET; a token-ring TRT optimum often does not.  Deadline shrinking is
left out: deadline-monotonic priorities can reorder, so the sum of
response times need not be monotone under it.  Utilization 1.2 gives
feasible systems on the 3-ECU ring, 2.4 a mix of feasible and
infeasible ones.  A wider ``allowed`` set only adds allocations, so
that relation holds for the maximum ECU utilization as well.
"""

import dataclasses

import pytest

from repro.core import (
    Allocator,
    MinimizeMaxUtilization,
    MinimizeSumResponseTimes,
)
from repro.model import TaskSet
from repro.workloads import random_taskset, ring_architecture


def _raised(tasks: TaskSet, index: int) -> TaskSet:
    """``tasks`` with every WCET of task ``index`` raised by a quarter
    (rounded up)."""
    return TaskSet([
        dataclasses.replace(t, wcet={p: -(-5 * w // 4)
                                     for p, w in t.wcet.items()})
        if i == index else t
        for i, t in enumerate(tasks)
    ], name=tasks.name)


def _widened(tasks: TaskSet, index: int, arch) -> TaskSet:
    """``tasks`` with task ``index`` also allowed on the first ECU it
    could not use, at its largest WCET."""
    t = list(tasks)[index]
    extra = next(p for p in arch.task_capable_ecus() if p not in t.allowed)
    wider = dataclasses.replace(
        t, allowed=t.allowed | {extra},
        wcet={**t.wcet, extra: max(t.wcet.values())})
    return TaskSet([wider if i == index else u
                    for i, u in enumerate(tasks)], name=tasks.name)


def _optimum(tasks, arch, objective=None):
    res = Allocator(tasks, arch).minimize(
        objective or MinimizeSumResponseTimes())
    assert res.proven and res.status in ("optimal", "infeasible")
    return res


@pytest.mark.parametrize("util", [1.2, 2.4])
@pytest.mark.parametrize("seed", range(10))
def test_raising_a_wcet_never_helps(util, seed):
    arch = ring_architecture(3)
    tasks = random_taskset(arch, 5, util, seed)
    base = _optimum(tasks, arch)
    raised = _optimum(_raised(tasks, seed % len(tasks)), arch)
    if not base.feasible:
        assert not raised.feasible
    if raised.feasible:
        assert base.feasible and base.cost <= raised.cost


@pytest.mark.parametrize("objective", [MinimizeSumResponseTimes,
                                       MinimizeMaxUtilization])
@pytest.mark.parametrize("util", [1.2, 2.4])
@pytest.mark.parametrize("seed", range(10))
def test_another_candidate_ecu_never_hurts(objective, util, seed):
    arch = ring_architecture(3)
    # Every task restricted to two of the three ECUs.
    tasks = random_taskset(arch, 5, util, seed, restrict_fraction=1.0)
    base = _optimum(tasks, arch, objective())
    wide = _optimum(_widened(tasks, seed % len(tasks), arch), arch,
                    objective())
    if base.feasible:
        assert wide.feasible and wide.cost <= base.cost
