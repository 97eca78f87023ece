"""Complete feasibility check of a concrete allocation.

Given an :class:`repro.analysis.allocation.Allocation`, verifies

1. structural validity (placement restrictions pi_i, separation delta_i,
   path endpoint/continuity conditions v(h)),
2. task schedulability: eq. 1 fixed points <= deadlines on every ECU,
3. message schedulability per medium: eq. 2 (CAN) / eq. 3 (token ring)
   with the section 4 jitter inheritance
   ``J^k_m = J_m + sum_{j < pos(k)} (d^{k_j}_m - beta^{k_j}(m))``,
4. the local-deadline split ``sum_k d^k_m + serv_m <= Delta_m``,
5. TDMA slot fit: every frame fits its sending ECU's slot.

When the allocation does not carry explicit local deadlines (heuristic
baselines), they are derived by splitting the end-to-end budget
proportionally to the per-medium wire times.

The analysis comes in components, each a function of the one part of
the allocation it reads: :func:`ecu_schedule` (one ECU's task set,
eq. 1), :func:`message_slices` (one message's path: local deadlines and
jitter inheritance) and :func:`queue_responses` (one medium queue: the
whole bus on CAN, one sending ECU's slot queue on a token ring, eqs. 2
and 3).  :func:`check_allocation` composes them over a whole allocation.
The annealing walk (:mod:`repro.baselines.annealing`) memoises the same
functions per component instead of re-running the whole check on every
move; there is no second copy of the analysis.

The checker is pure analysis code -- no SAT involved -- so it serves as
an independent oracle for the optimizer's output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.allocation import Allocation, MsgRef
from repro.analysis.rta import ecu_response_times
from repro.analysis.bus import can_response_time, tdma_response_time
from repro.model.architecture import Architecture, Medium, MediumKind
from repro.model.task import TaskSet

__all__ = [
    "FeasibilityReport",
    "check_allocation",
    "ecu_schedule",
    "message_priority",
    "message_slices",
    "queue_responses",
    "sending_ecu_on",
]


@dataclass
class FeasibilityReport:
    """Outcome of a feasibility check."""

    schedulable: bool
    problems: list[str] = field(default_factory=list)
    task_response: dict[str, int | None] = field(default_factory=dict)
    msg_response: dict[tuple[MsgRef, str], int | None] = field(
        default_factory=dict
    )
    msg_local_deadline: dict[tuple[MsgRef, str], int] = field(
        default_factory=dict
    )
    trt: dict[str, int] = field(default_factory=dict)
    ecu_utilization: dict[str, float] = field(default_factory=dict)
    bus_utilization: dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.schedulable


def sending_ecu_on(
    arch: Architecture, path: tuple[str, ...], src_ecu: str, hop: int
) -> str:
    """The ECU that injects the message into medium ``path[hop]``: the
    original sender for hop 0, the upstream gateway afterwards."""
    if hop == 0:
        return src_ecu
    gw = arch.gateway_between(path[hop - 1], path[hop])
    assert gw is not None, "path continuity must be validated first"
    return gw


def _derive_local_deadlines(
    tasks: TaskSet,
    arch: Architecture,
    ref: MsgRef,
    path: tuple[str, ...],
) -> dict[str, int] | None:
    """Proportional split of the end-to-end deadline over the media of
    ``path`` after subtracting gateway service cost.  None when the
    budget cannot even cover the wire times."""
    _, msg = ref.resolve(tasks)
    serv = sum(
        arch.media[k].gateway_service for k in path[1:]
    )
    budget = msg.deadline - serv
    rhos = [arch.media[k].transmission_ticks(msg.size_bits) for k in path]
    total_rho = sum(rhos)
    if budget < total_rho:
        return None
    extra = budget - total_rho
    out: dict[str, int] = {}
    remaining = extra
    for i, k in enumerate(path):
        share = extra * rhos[i] // total_rho if total_rho else 0
        if i == len(path) - 1:
            share = remaining
        remaining -= share
        out[k] = rhos[i] + share
    return out


def ecu_schedule(
    tasks: TaskSet, ecu: str, names: list[str], prio: dict[str, int]
) -> tuple[dict[str, int | None], list[str]]:
    """Eq. 1 on one ECU hosting the tasks ``names`` (in that order).

    Returns each task's response time (None on a miss) and one problem
    per miss.  Both are empty when a task has no WCET on ``ecu``: that
    structural problem is recorded elsewhere.
    """
    group = [tasks[t] for t in names]
    if not group or any(ecu not in t.wcet for t in group):
        return {}, []
    rts = ecu_response_times(
        group,
        {t.name: t.wcet[ecu] for t in group},
        prio,
        {t.name: t.release_jitter for t in group},
    )
    misses = [
        f"task {name} misses its deadline on {ecu}"
        for name, r in rts.items()
        if r is None
    ]
    return rts, misses


def message_priority(
    tasks: TaskSet, msg_prio: dict[MsgRef, int], ref: MsgRef
) -> tuple:
    """Sort key of a message's priority (smaller = higher): pinned ranks
    first, otherwise deadline-monotonic over end-to-end deadlines with a
    deterministic name tie-break."""
    if ref in msg_prio:
        return (0, msg_prio[ref], ref.sender, ref.index)
    _, msg = ref.resolve(tasks)
    return (1, msg.deadline, ref.sender, ref.index)


#: One message as a medium queue sees it:
#: ``(priority key, rho, period, jitter, local deadline)``.  The local
#: deadline is None for a message whose deadlines could not be split: it
#: still interferes (with jitter 0) but is not analysed itself.
QueueEntry = tuple[tuple, int, int, int, "int | None"]


def message_slices(
    tasks: TaskSet,
    arch: Architecture,
    ref: MsgRef,
    path: tuple[str, ...],
    src_ecu: str,
    prio: tuple,
    explicit: dict[str, int] | None = None,
) -> tuple[list[tuple[str, str, QueueEntry]], list[str]]:
    """Local deadlines and inherited jitters of one routed message.

    ``explicit`` holds the allocation's local deadline per medium of
    ``path``; without it the end-to-end deadline is split by
    :func:`_derive_local_deadlines`.  Jitter is inherited along the path,
    ``J^k_m = J_m + sum_{j < pos(k)} (d^{k_j}_m - beta^{k_j}(m))``.

    Returns one ``(medium, sending ECU, queue entry)`` per medium of the
    path, and the message's local-deadline problems.
    """
    task, msg = ref.resolve(tasks)
    problems: list[str] = []
    dls = explicit
    if dls is None:
        dls = _derive_local_deadlines(tasks, arch, ref, path)
    if dls is None:
        problems.append(
            f"message {ref}: deadline {msg.deadline} cannot cover "
            "wire times plus gateway service"
        )
    else:
        serv = sum(arch.media[k].gateway_service for k in path[1:])
        if sum(dls.values()) + serv > msg.deadline:
            problems.append(
                f"message {ref}: local deadlines + gateway service exceed "
                f"the end-to-end deadline {msg.deadline}"
            )
    # (rho, jitter, local deadline) per medium; a medium a malformed
    # path repeats keeps its last hop's values.
    hops: dict[str, tuple[int, int, int | None]] = {}
    j = task.release_jitter
    for k in path:
        rho = arch.media[k].transmission_ticks(msg.size_bits)
        if dls is None:
            hops[k] = (rho, 0, None)
        else:
            hops[k] = (rho, j, dls[k])
            j += dls[k] - rho
    slices = [
        (
            k,
            sending_ecu_on(arch, path, src_ecu, path.index(k)),
            (prio, rho, task.period, jitter, dl),
        )
        for k, (rho, jitter, dl) in hops.items()
    ]
    return slices, problems


def queue_responses(
    medium: Medium,
    queue: list[QueueEntry],
    own_slot: int = 0,
    round_length: int = 0,
) -> list[int | None]:
    """Response times of the messages of one medium queue, aligned with
    ``queue`` (None on a miss and for a message not analysed).

    On a CAN medium the queue is every message on the bus (eq. 2, plus
    one lower-priority frame of non-preemptive blocking when the medium
    asks for it).  On a token ring it is the messages one ECU injects,
    sharing that ECU's slot ``own_slot`` of the round ``round_length``
    (eq. 3).  The local deadline budgets the delay *from arrival at this
    medium*; a message's own inherited jitter is already paid for by the
    previous hops' local deadlines, so jitter enters only through the
    interferers' ceil terms.
    """
    can = medium.kind is MediumKind.CAN
    out: list[int | None] = []
    for i, (prio, rho, _, _, dl) in enumerate(queue):
        if dl is None:
            out.append(None)
            continue
        interferers = []
        blocking = 0
        for o, (oprio, orho, operiod, ojitter, _) in enumerate(queue):
            if o == i:
                continue
            if oprio < prio:
                interferers.append((orho, operiod, ojitter))
            elif can and medium.nonpreemptive_blocking:
                # One lower-priority frame already on the wire cannot be
                # preempted.
                blocking = max(blocking, orho)
        if can:
            r = can_response_time(
                rho, interferers, deadline=dl, blocking=blocking
            )
        else:
            r = tdma_response_time(
                rho,
                interferers,
                round_length=round_length,
                own_slot=own_slot,
                deadline=dl,
            )
        out.append(r)
    return out


def check_allocation(
    tasks: TaskSet, arch: Architecture, alloc: Allocation
) -> FeasibilityReport:
    """Run the full analysis; see the module docstring."""
    report = FeasibilityReport(schedulable=True)
    report.problems.extend(alloc.validate_structure(tasks, arch))

    # Task schedulability per ECU (eq. 1).
    for ecu in arch.ecu_names():
        names = [t for t in alloc.tasks_on(ecu) if t in tasks.tasks]
        rts, misses = ecu_schedule(tasks, ecu, names, alloc.task_prio)
        if not rts:
            continue
        report.task_response.update(rts)
        report.problems.extend(misses)
        report.ecu_utilization[ecu] = alloc.utilization(tasks, ecu)

    # Per-medium message queues, local deadlines and jitters (section 4).
    routed = sorted(
        ((ref, path) for ref, path in alloc.message_path.items() if path),
        key=lambda rp: rp[0],
    )
    on_medium: dict[str, list[tuple[MsgRef, str, QueueEntry]]] = {
        k: [] for k in arch.medium_names()
    }
    for ref, path in routed:
        explicit = None
        if all((ref, k) in alloc.local_deadline for k in path):
            explicit = {k: alloc.local_deadline[(ref, k)] for k in path}
        slices, problems = message_slices(
            tasks,
            arch,
            ref,
            path,
            alloc.ecu_of(ref.sender),
            message_priority(tasks, alloc.msg_prio, ref),
            explicit,
        )
        report.problems.extend(problems)
        for medium, sender, entry in slices:
            on_medium[medium].append((ref, sender, entry))
            if entry[4] is not None:
                report.msg_local_deadline[(ref, medium)] = entry[4]

    # Per-medium response times (eqs. 2 and 3).
    for medium in arch.medium_names():
        k = arch.media[medium]
        ring = k.kind is MediumKind.TOKEN_RING
        if ring:
            report.trt[medium] = alloc.trt(arch, medium)
        msgs = on_medium[medium]
        if not msgs:
            continue
        report.bus_utilization[medium] = alloc.bus_utilization(
            tasks, arch, medium
        )
        # A CAN medium is one queue; a ring has one per sending ECU
        # (other slots are covered by the round).
        queues: dict[str | None, list[int]] = {}
        for i, (_, sender, _) in enumerate(msgs):
            queues.setdefault(sender if ring else None, []).append(i)
        response: dict[int, int | None] = {}
        for sender, members in queues.items():
            rs = queue_responses(
                k,
                [msgs[i][2] for i in members],
                own_slot=alloc.slot_ticks.get((medium, sender), k.min_slot),
                round_length=report.trt.get(medium, 0),
            )
            response.update(zip(members, rs))
        for i, (ref, _, entry) in enumerate(msgs):
            if entry[4] is None:
                continue  # earlier problem recorded
            r = response[i]
            report.msg_response[(ref, medium)] = r
            if r is None:
                report.problems.append(
                    f"message {ref} misses its local deadline {entry[4]} "
                    f"on {medium}"
                )

    report.schedulable = not report.problems
    return report
