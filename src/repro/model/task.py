"""Task and message model (paper section 2).

A task is ``tau_i = (t_i, c_i, gamma_i, pi_i, delta_i, d_i)``:

- ``t_i``      activation period / minimal inter-arrival time (ticks),
- ``c_i``      worst-case execution time per ECU (``c_i : P -> N``),
- ``gamma_i``  messages the task sends at the end of each computation
               (target task, size in bits, deadline in ticks),
- ``pi_i``     the ECUs the task may be allocated on,
- ``delta_i``  tasks that must NOT share an ECU with ``tau_i``
               (redundant replicas in fault-tolerant designs),
- ``d_i``      the task's deadline (ticks).

Scheduling is preemptive fixed-priority; priorities are assigned
deadline-monotonically with ties broken by the optimizer (eqs. 9-10).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.architecture import Architecture

__all__ = ["Message", "Task", "TaskSet"]


@dataclass(frozen=True)
class Message:
    """A message ``m = (target, size, deadline)`` in ``gamma_i``.

    ``deadline`` is the end-to-end transmission deadline Delta_m across
    all media the message crosses; the encoder splits it into per-medium
    local deadlines (section 4).
    """

    target: str
    size_bits: int
    deadline: int

    def __post_init__(self):
        if self.size_bits <= 0:
            raise ValueError("message size must be positive")
        if self.deadline <= 0:
            raise ValueError("message deadline must be positive")


@dataclass
class Task:
    """A periodic task with per-ECU WCETs.

    ``wcet`` maps ECU name -> execution time; ECUs missing from the map
    are implicitly forbidden (in addition to the explicit ``allowed``
    restriction ``pi_i``).  ``allowed=None`` means unrestricted.
    ``separated_from`` is ``delta_i``.
    """

    name: str
    period: int
    wcet: dict[str, int]
    deadline: int
    messages: tuple[Message, ...] = ()
    allowed: frozenset[str] | None = None
    separated_from: frozenset[str] = frozenset()
    release_jitter: int = 0
    memory: int = 0

    def __post_init__(self):
        if self.memory < 0:
            raise ValueError(f"task {self.name}: memory must be >= 0")
        if self.release_jitter < 0:
            raise ValueError(
                f"task {self.name}: release jitter must be >= 0"
            )
        if self.release_jitter >= self.deadline:
            raise ValueError(
                f"task {self.name}: release jitter must be below the "
                "deadline"
            )
        if self.period <= 0:
            raise ValueError(f"task {self.name}: period must be positive")
        if self.deadline <= 0:
            raise ValueError(f"task {self.name}: deadline must be positive")
        if self.deadline > self.period:
            raise ValueError(
                f"task {self.name}: constrained-deadline model requires "
                "deadline <= period"
            )
        if not self.wcet:
            raise ValueError(f"task {self.name}: empty WCET map")
        for p, c in self.wcet.items():
            if c <= 0:
                raise ValueError(f"task {self.name}: WCET on {p} must be > 0")
        self.messages = tuple(self.messages)
        if self.allowed is not None:
            self.allowed = frozenset(self.allowed)
        self.separated_from = frozenset(self.separated_from)

    def candidate_ecus(self, arch: Architecture) -> list[str]:
        """ECUs this task may run on: pi_i intersected with the WCET map
        domain and the architecture's task-capable ECUs."""
        out = []
        for p in arch.task_capable_ecus():
            if p not in self.wcet:
                continue
            if self.allowed is not None and p not in self.allowed:
                continue
            out.append(p)
        return out

    def utilization_on(self, ecu: str) -> float:
        """WCET/period on a specific ECU."""
        return self.wcet[ecu] / self.period


class TaskSet:
    """A named collection of tasks with cross-reference validation."""

    def __init__(self, tasks: list[Task], name: str = "taskset"):
        self.name = name
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate task names")
        self.tasks: dict[str, Task] = {t.name: t for t in tasks}
        self._validate()

    def _validate(self) -> None:
        for t in self.tasks.values():
            for m in t.messages:
                if m.target not in self.tasks:
                    raise ValueError(
                        f"task {t.name} sends to unknown task {m.target}"
                    )
                if m.target == t.name:
                    raise ValueError(f"task {t.name} sends to itself")
            for other in t.separated_from:
                if other not in self.tasks:
                    raise ValueError(
                        f"task {t.name} separated from unknown task {other}"
                    )
                if other == t.name:
                    raise ValueError(f"task {t.name} separated from itself")

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks.values())

    def __getitem__(self, name: str) -> Task:
        return self.tasks[name]

    def names(self) -> list[str]:
        """Task names in declaration order."""
        return list(self.tasks)

    def all_messages(self) -> list[tuple[Task, Message]]:
        """Every (sender, message) pair in the set."""
        return [(t, m) for t in self.tasks.values() for m in t.messages]

    def total_utilization(self, arch: Architecture) -> float:
        """Lower bound on total CPU demand: each task's best-case
        utilization over its candidate ECUs."""
        total = 0.0
        for t in self.tasks.values():
            cands = t.candidate_ecus(arch)
            if not cands:
                raise ValueError(f"task {t.name} has no candidate ECU")
            total += min(t.wcet[p] for p in cands) / t.period
        return total

    def chains(self) -> list[list[str]]:
        """Maximal sender->receiver chains (transactions), following the
        message graph from tasks that receive nothing."""
        receives = {m.target for (_, m) in self.all_messages()}
        sends: dict[str, list[str]] = {}
        for t, m in self.all_messages():
            sends.setdefault(t.name, []).append(m.target)
        chains: list[list[str]] = []

        def walk(node: str, acc: list[str]) -> None:
            nxt = sends.get(node, [])
            if not nxt:
                chains.append(acc)
                return
            for target in nxt:
                if target in acc:  # cycle guard
                    chains.append(acc)
                    continue
                walk(target, acc + [target])

        for t in self.tasks.values():
            if t.name not in receives:
                walk(t.name, [t.name])
        return [c for c in chains if len(c) > 1]

    def subset(self, names: list[str], name: str | None = None) -> "TaskSet":
        """A consistent sub-task-set: messages to tasks outside the subset
        and separation references outside it are dropped (used by the
        paper's table 3 partitioning experiment)."""
        keep = set(names)
        out: list[Task] = []
        for n in names:
            t = self.tasks[n]
            out.append(
                Task(
                    name=t.name,
                    period=t.period,
                    wcet=dict(t.wcet),
                    deadline=t.deadline,
                    messages=tuple(
                        m for m in t.messages if m.target in keep
                    ),
                    allowed=t.allowed,
                    separated_from=frozenset(
                        s for s in t.separated_from if s in keep
                    ),
                    release_jitter=t.release_jitter,
                    memory=t.memory,
                )
            )
        return TaskSet(out, name=name or f"{self.name}[{len(out)}]")
