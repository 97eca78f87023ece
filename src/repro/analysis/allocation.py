"""Concrete allocation data structure shared by the optimizer output, the
feasibility checker and the heuristic baselines.

An allocation fixes everything section 2 calls Pi, Phi and Gamma:

- ``task_ecu``:     Pi  -- task name -> ECU name,
- ``task_prio``:    Phi -- task name -> priority rank (smaller = higher),
- ``message_path``: Gamma -- message -> ordered media tuple (empty for
  intra-ECU communication),
- ``slot_ticks``:   per (token-ring medium, ECU) slot length lambda,
- ``local_deadline``: per (message, medium) deadline split d^k_m
  (section 4); optional -- the checker derives greedy splits when absent.

Messages are referred to by :class:`MsgRef` = (sender task, index in the
sender's gamma list).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.model.architecture import Architecture, MediumKind
from repro.model.task import Message, Task, TaskSet

__all__ = [
    "MsgRef",
    "Allocation",
    "placement_problems",
    "memory_problem",
    "path_problems",
]


@dataclass(frozen=True, order=True)
class MsgRef:
    """Stable identity of a message: (sender task name, index)."""

    sender: str
    index: int

    def resolve(self, tasks: TaskSet) -> tuple[Task, Message]:
        """The (sender task, message) pair this reference denotes."""
        task = tasks[self.sender]
        return task, task.messages[self.index]

    def __str__(self) -> str:
        return f"{self.sender}/m{self.index}"


@dataclass
class Allocation:
    """A complete mapping of an application onto an architecture."""

    task_ecu: dict[str, str]
    task_prio: dict[str, int]
    message_path: dict[MsgRef, tuple[str, ...]] = field(default_factory=dict)
    slot_ticks: dict[tuple[str, str], int] = field(default_factory=dict)
    local_deadline: dict[tuple[MsgRef, str], int] = field(
        default_factory=dict
    )
    msg_prio: dict[MsgRef, int] = field(default_factory=dict)

    def ecu_of(self, task: str) -> str:
        return self.task_ecu[task]

    def tasks_on(self, ecu: str) -> list[str]:
        """Tasks placed on a given ECU."""
        return [t for t, p in self.task_ecu.items() if p == ecu]

    def messages_on(self, medium: str) -> list[MsgRef]:
        """Messages whose path uses the given medium."""
        return [m for m, path in self.message_path.items() if medium in path]

    def trt(self, arch: Architecture, medium: str) -> int:
        """Token Rotation Time of a token-ring medium: the TDMA round
        Lambda = sum of the slots of all attached ECUs (plus per-slot
        overhead, already folded into slot_ticks by the optimizer)."""
        k = arch.media[medium]
        if k.kind is not MediumKind.TOKEN_RING:
            raise ValueError(f"{medium} is not a token-ring medium")
        return sum(
            self.slot_ticks.get((medium, p), k.min_slot) for p in k.ecus
        )

    def utilization(self, tasks: TaskSet, ecu: str) -> float:
        """CPU utilization of one ECU under this allocation."""
        return sum(tasks[t].utilization_on(ecu) for t in self.tasks_on(ecu))

    def bus_utilization(self, tasks: TaskSet, arch: Architecture,
                        medium: str) -> float:
        """Bandwidth fraction consumed on one medium (the U_CAN objective
        of table 1): sum of rho_m / t_m over messages using it."""
        k = arch.media[medium]
        total = 0.0
        for ref in self.messages_on(medium):
            task, msg = ref.resolve(tasks)
            total += k.transmission_ticks(msg.size_bits) / task.period
        return total

    def validate_structure(self, tasks: TaskSet, arch: Architecture) -> list[str]:
        """Structural sanity: placement restrictions, separation,
        path endpoint validity v(h).  Returns a list of human-readable
        problems (empty when structurally valid)."""
        problems: list[str] = []
        placed: dict[str, set[str]] = {}
        for t, p in self.task_ecu.items():
            placed.setdefault(p, set()).add(t)
        for t in tasks:
            ecu = self.task_ecu.get(t.name)
            if ecu is None:
                problems.append(f"task {t.name} unplaced")
                continue
            problems.extend(placement_problems(arch, t, ecu, placed[ecu]))
        for p in arch.ecus:
            excess = memory_problem(tasks, arch, p, placed.get(p, ()))
            if excess is not None:
                problems.append(excess)
        # Priorities must be a strict order over tasks.
        prios = [self.task_prio[t.name] for t in tasks if t.name in self.task_prio]
        if len(set(prios)) != len(prios):
            problems.append("duplicate task priorities")
        for t in tasks:
            for idx, msg in enumerate(t.messages):
                ref = MsgRef(t.name, idx)
                path = self.message_path.get(ref)
                src = self.task_ecu.get(t.name)
                dst = self.task_ecu.get(msg.target)
                if src is None or dst is None:
                    continue
                if path is None:
                    problems.append(f"message {ref} unrouted")
                    continue
                problems.extend(path_problems(arch, ref, path, src, dst))
        return problems


# The structural checks below are the pieces of
# :meth:`Allocation.validate_structure`, each a function of the one part
# of the allocation it reads, so a caller that memoises per-ECU or
# per-message results (the annealing walk) composes the same checks.

def placement_problems(
    arch: Architecture, task: Task, ecu: str, colocated: set[str]
) -> list[str]:
    """Problems of placing ``task`` on ``ecu`` next to the tasks named
    in ``colocated``: WCET domain, pi_i, gateway-only ECUs and
    separation delta_i."""
    problems: list[str] = []
    if ecu not in task.wcet:
        problems.append(f"task {task.name} has no WCET on {ecu}")
    if task.allowed is not None and ecu not in task.allowed:
        problems.append(f"task {task.name} placed outside pi_i ({ecu})")
    if not arch.ecus[ecu].allow_tasks:
        problems.append(f"task {task.name} placed on gateway-only {ecu}")
    for other in task.separated_from:
        if other in colocated:
            problems.append(
                f"separated tasks {task.name},{other} share {ecu}"
            )
    return problems


def memory_problem(
    tasks: TaskSet, arch: Architecture, ecu: str, names: Iterable[str]
) -> str | None:
    """The memory-capacity problem of ECU ``ecu`` hosting the tasks
    ``names`` (names outside ``tasks`` weigh nothing), or None."""
    cap = arch.ecus[ecu].memory
    if cap is None:
        return None
    used = sum(tasks[t].memory for t in names if t in tasks.tasks)
    if used > cap:
        return f"ECU {ecu}: memory demand {used} exceeds capacity {cap}"
    return None


def path_problems(
    arch: Architecture,
    ref: MsgRef,
    path: tuple[str, ...],
    src: str,
    dst: str,
) -> list[str]:
    """Endpoint and continuity conditions for a message path (v(h) of
    section 4 plus gateway chaining)."""
    problems: list[str] = []
    if not path:
        if src != dst:
            problems.append(
                f"message {ref}: empty path but endpoints differ "
                f"({src} vs {dst})"
            )
        return problems
    first = arch.media[path[0]]
    last = arch.media[path[-1]]
    if not first.connects(src):
        problems.append(f"message {ref}: sender ECU {src} not on {path[0]}")
    if not last.connects(dst):
        problems.append(f"message {ref}: target ECU {dst} not on {path[-1]}")
    for a, b in zip(path, path[1:]):
        if arch.gateway_between(a, b) is None:
            problems.append(
                f"message {ref}: media {a} and {b} not linked by a gateway"
            )
    if len(path) >= 2:
        gw_first = arch.gateway_between(path[0], path[1])
        if src == gw_first:
            problems.append(
                f"message {ref}: sender {src} is the gateway between "
                f"{path[0]} and {path[1]} (v(h) violation)"
            )
        gw_last = arch.gateway_between(path[-2], path[-1])
        if dst == gw_last:
            problems.append(
                f"message {ref}: target {dst} is the gateway between "
                f"{path[-2]} and {path[-1]} (v(h) violation)"
            )
    if len(set(path)) != len(path):
        problems.append(f"message {ref}: path repeats a medium")
    return problems
