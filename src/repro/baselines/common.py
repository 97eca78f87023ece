"""Shared machinery of the heuristic baselines.

A heuristic explores the space of task->ECU maps; everything else is
derived deterministically:

- priorities: deadline-monotonic with name tie-breaks,
- message routes: BFS shortest path in the media graph between the
  sender's and receiver's ECUs (empty when co-located),
- token-ring slot table: each ECU's slot is the smallest that fits every
  frame it injects (plus slot overhead), bounded below by ``min_slot``,
- local deadlines: the checker's proportional split.

``evaluate_cost`` mirrors the optimizer's objectives on concrete
allocations so heuristic and SAT results are directly comparable.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.allocation import Allocation, MsgRef
from repro.analysis.feasibility import check_allocation, sending_ecu_on
from repro.analysis.rta import deadline_monotonic_order
from repro.model.architecture import Architecture, Medium, MediumKind
from repro.model.task import TaskSet

__all__ = [
    "route_between",
    "derive_allocation",
    "ring_slot",
    "can_util_term",
    "evaluate_cost",
]


#: What a task that misses its deadline adds to the ``sum_resp`` cost.
MISSED_RESPONSE = 10**9


def route_between(
    arch: Architecture, src: str, dst: str
) -> tuple[str, ...] | None:
    """Shortest valid media path from ECU ``src`` to ECU ``dst``.

    Respects the v(h) endpoint conditions: the sender must not be the
    gateway into the second medium, nor the receiver the gateway from the
    second-to-last.  Returns () for co-located endpoints, None when no
    path exists.
    """
    if src == dst:
        return ()
    direct = arch.common_medium(src, dst)
    if direct is not None:
        return (direct,)
    adj = arch.media_adjacency()
    starts = arch.media_of_ecu(src)
    targets = set(arch.media_of_ecu(dst))
    best: tuple[str, ...] | None = None
    for start in starts:
        queue: deque[tuple[str, ...]] = deque([(start,)])
        seen = {start}
        while queue:
            path = queue.popleft()
            if path[-1] in targets and len(path) >= 2:
                if _endpoints_valid(arch, path, src, dst):
                    if best is None or len(path) < len(best):
                        best = path
                    break
            for nxt in adj[path[-1]]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(path + (nxt,))
    return best


def _endpoints_valid(
    arch: Architecture, path: tuple[str, ...], src: str, dst: str
) -> bool:
    gw_first = arch.gateway_between(path[0], path[1])
    gw_last = arch.gateway_between(path[-2], path[-1])
    return src != gw_first and dst != gw_last


def derive_allocation(
    tasks: TaskSet, arch: Architecture, task_ecu: dict[str, str]
) -> Allocation | None:
    """Complete a bare placement into a full Allocation, or None when a
    message has no valid route."""
    prio = deadline_monotonic_order(list(tasks))
    message_path: dict[MsgRef, tuple[str, ...]] = {}
    for t in tasks:
        for i, m in enumerate(t.messages):
            route = route_between(
                arch, task_ecu[t.name], task_ecu[m.target]
            )
            if route is None:
                return None
            message_path[MsgRef(t.name, i)] = route
    slot_ticks: dict[tuple[str, str], int] = {}
    for kname, k in arch.media.items():
        if k.kind is not MediumKind.TOKEN_RING:
            continue
        rhos: dict[str, list[int]] = {p: [] for p in k.ecus}
        for ref, path in message_path.items():
            if kname not in path:
                continue
            hop = path.index(kname)
            task, msg = ref.resolve(tasks)
            sender = sending_ecu_on(arch, path, task_ecu[task.name], hop)
            rhos[sender].append(k.transmission_ticks(msg.size_bits))
        for p, queue in rhos.items():
            slot_ticks[(kname, p)] = ring_slot(k, queue)
    return Allocation(
        task_ecu=dict(task_ecu),
        task_prio=prio,
        message_path=message_path,
        slot_ticks=slot_ticks,
    )


def ring_slot(medium: Medium, rhos) -> int:
    """The slot a ring ECU gets for the frames it injects (wire times
    ``rhos``): the smallest that fits each one plus slot overhead, and
    at least ``min_slot``."""
    return max([medium.min_slot] + [r + medium.slot_overhead for r in rhos])


def can_util_term(rho: int, period: int) -> int:
    """Per-mille bus load of one message, rounded up: its share of the
    ``can_util`` objective."""
    return -((-rho * 1000) // period)


def evaluate_cost(
    tasks: TaskSet,
    arch: Architecture,
    alloc: Allocation,
    objective: str,
    medium: str | None = None,
) -> int:
    """Objective value of a concrete allocation.

    ``objective`` in {"trt", "sum_trt", "can_util", "sum_resp"}; "trt"
    and "can_util" need ``medium``.  "can_util" is in per-mille, matching
    :class:`repro.core.objectives.MinimizeCanUtilization`.
    """
    if objective == "trt":
        assert medium is not None
        return alloc.trt(arch, medium)
    if objective == "sum_trt":
        return sum(
            alloc.trt(arch, k)
            for k, m in arch.media.items()
            if m.kind is MediumKind.TOKEN_RING
        )
    if objective == "can_util":
        assert medium is not None
        k = arch.media[medium]
        total = 0
        for ref in alloc.messages_on(medium):
            task, msg = ref.resolve(tasks)
            total += can_util_term(
                k.transmission_ticks(msg.size_bits), task.period
            )
        return total
    if objective == "sum_resp":
        rep = check_allocation(tasks, arch, alloc)
        return sum(
            r if r is not None else MISSED_RESPONSE
            for r in rep.task_response.values()
        )
    raise ValueError(f"unknown objective {objective!r}")
