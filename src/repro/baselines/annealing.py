"""Simulated annealing allocator in the style of Tindell et al. [5].

State: a task -> ECU map.  Neighbour: move one random task to another
candidate ECU.  Energy: ``PENALTY_WEIGHT * #violations + objective``, so
the walk is drawn first toward feasibility, then toward low cost --
the classic formulation of [5], which the paper's table 1 compares
against (SA found TRT = 8.7 ms; the SAT method proves 8.55 ms optimal).

The implementation is deliberately budgeted: with a finite iteration
budget SA typically lands on a feasible but sub-optimal solution on tight
instances, reproducing the paper's observation that "simulated annealing
in this case did not find the optimal solution".

A move changes the task sets of two ECUs and the routes of the moved
task's messages; the rest of the system is as before.  So the walk does
not build an :class:`~repro.analysis.allocation.Allocation` and re-run
:func:`~repro.analysis.feasibility.check_allocation` per move.  A
:class:`MoveScorer` composes the energy from the checker's own component
functions, memoised for the length of one walk: per ECU task set, per
message and endpoints, per medium queue.  Its violation count and cost
equal what the full check reports on the derived allocation.  An
allocation is derived only for a state that becomes the new best.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.analysis.allocation import (
    Allocation,
    MsgRef,
    memory_problem,
    path_problems,
    placement_problems,
)
from repro.analysis.feasibility import (
    ecu_schedule,
    message_priority,
    message_slices,
    queue_responses,
)
from repro.analysis.rta import deadline_monotonic_order
from repro.baselines.common import (
    MISSED_RESPONSE,
    can_util_term,
    derive_allocation,
    evaluate_cost,
    ring_slot,
    route_between,
)
from repro.model.architecture import Architecture, MediumKind
from repro.model.task import TaskSet

__all__ = ["AnnealingResult", "MoveScorer", "simulated_annealing"]

#: Energy weight of one constraint violation; dominates any objective.
PENALTY_WEIGHT = 1_000_000

#: Energy of a placement in which some message has no route.
UNROUTABLE_ENERGY = PENALTY_WEIGHT * 100


@dataclass
class AnnealingResult:
    """Best state found by the annealing walk."""

    feasible: bool
    cost: int | None
    allocation: Allocation | None
    iterations: int
    accepted: int
    energy_trace: list[int]


class MoveScorer:
    """Violation count and cost of placements, from memoised components.

    A placement is scored as :func:`~repro.baselines.common.
    derive_allocation` would complete it: deadline-monotonic priorities,
    shortest routes, each ring sender's smallest fitting slot and the
    proportional local-deadline split.  The score composes the
    checker's component functions, each memoised under the inputs it
    reads:

    - per ECU, keyed by ``(ecu, frozenset(tasks))``: placement and
      separation problems, memory excess, eq. 1 misses and the sum of
      response times;
    - per message, keyed by ``(message, sending ECU, receiving ECU)``:
      route, path problems, local deadlines and inherited jitters (the
      route itself by its endpoints);
    - per medium queue: a token ring's sending ECU, keyed by ``(medium,
      sender, slot, TRT, queue entries)``, and a CAN medium's message
      set, keyed by its queue entries; the value is the queue's misses.

    The caches live as long as the scorer, i.e. one walk.  The score is
    untrusted: callers re-check what they keep with
    :func:`~repro.analysis.feasibility.check_allocation`.
    """

    def __init__(
        self,
        tasks: TaskSet,
        arch: Architecture,
        objective: str,
        medium: str | None = None,
    ):
        self.tasks = tasks
        self.arch = arch
        self.objective = objective
        self.medium = medium
        self.names = tasks.names()
        # Ranks are unique, so the structural priority check never fails.
        self.prio = deadline_monotonic_order(list(tasks))
        refs = sorted(
            MsgRef(t.name, i) for t in tasks for i in range(len(t.messages))
        )
        self.messages = [
            (ref, ref.sender, ref.resolve(tasks)[1].target) for ref in refs
        ]
        #: TRT of each token ring carrying no message.
        self.idle_trt = {
            k: ring_slot(m, ()) * len(m.ecus)
            for k, m in arch.media.items()
            if m.kind is MediumKind.TOKEN_RING
        }
        self._ecus: dict[tuple, tuple[int, int]] = {}
        self._routes: dict[tuple[str, str], tuple[str, ...] | None] = {}
        self._msgs: dict[tuple, tuple[int, tuple] | None] = {}
        self._queues: dict[tuple, int] = {}

    def score(
        self, placement: dict[str, str]
    ) -> tuple[int, int, bool] | None:
        """``(violations, cost, feasible)`` of ``placement``, or None
        when some message has no route."""
        problems = 0
        on_medium: dict[str, dict[str | None, list]] = {}
        for i, (ref, sender, target) in enumerate(self.messages):
            key = (i, placement[sender], placement[target])
            try:
                part = self._msgs[key]
            except KeyError:
                part = self._msgs[key] = self._message(ref, *key[1:])
            if part is None:
                return None
            problems += part[0]
            for k, queue, entry in part[1]:
                on_medium.setdefault(k, {}).setdefault(queue, []).append(
                    entry
                )

        hosted: dict[str, list[str]] = {}
        for name in self.names:
            hosted.setdefault(placement[name], []).append(name)
        responses = 0
        for ecu, names in hosted.items():
            key = (ecu, frozenset(names))
            part = self._ecus.get(key)
            if part is None:
                part = self._ecus[key] = self._ecu(ecu, names)
            problems += part[0]
            responses += part[1]

        trt = dict(self.idle_trt)
        for k, queues in on_medium.items():
            medium = self.arch.media[k]
            if medium.kind is MediumKind.TOKEN_RING:
                slots = {
                    p: ring_slot(medium, [e[1] for e in queues.get(p, ())])
                    for p in medium.ecus
                }
                trt[k] = sum(slots.values())
                for sender, queue in queues.items():
                    problems += self._misses(
                        (k, sender, slots[sender], trt[k], tuple(queue))
                    )
            else:
                problems += self._misses((k, None, 0, 0, tuple(queues[None])))

        cost = self._cost(on_medium, trt, responses)
        return problems, cost, problems == 0

    def _cost(self, on_medium, trt, responses) -> int:
        # The objectives of evaluate_cost, on the composed state.
        objective, k = self.objective, self.medium
        if objective == "trt":
            assert k is not None
            if self.arch.media[k].kind is not MediumKind.TOKEN_RING:
                raise ValueError(f"{k} is not a token-ring medium")
            return trt[k]
        if objective == "sum_trt":
            return sum(trt.values())
        if objective == "can_util":
            assert k is not None
            return sum(
                can_util_term(e[1], e[2])
                for queue in on_medium.get(k, {}).values()
                for e in queue
            )
        if objective == "sum_resp":
            return responses
        raise ValueError(f"unknown objective {objective!r}")

    def _ecu(self, ecu: str, names: list[str]) -> tuple[int, int]:
        colocated = set(names)
        problems = sum(
            len(placement_problems(self.arch, self.tasks[t], ecu, colocated))
            for t in names
        )
        if memory_problem(self.tasks, self.arch, ecu, names) is not None:
            problems += 1
        rts, misses = ecu_schedule(self.tasks, ecu, names, self.prio)
        responses = sum(
            r if r is not None else MISSED_RESPONSE for r in rts.values()
        )
        return problems + len(misses), responses

    def _message(
        self, ref: MsgRef, src: str, dst: str
    ) -> tuple[int, tuple] | None:
        try:
            path = self._routes[(src, dst)]
        except KeyError:
            path = self._routes[(src, dst)] = route_between(
                self.arch, src, dst
            )
        if path is None:
            return None
        problems = len(path_problems(self.arch, ref, path, src, dst))
        if not path:
            return problems, ()
        slices, dl_problems = message_slices(
            self.tasks, self.arch, ref, path, src,
            message_priority(self.tasks, {}, ref),
        )
        # A CAN medium is one queue; a ring has one per sending ECU.
        return problems + len(dl_problems), tuple(
            (k, sender if k in self.idle_trt else None, entry)
            for k, sender, entry in slices
        )

    def _misses(self, key: tuple) -> int:
        misses = self._queues.get(key)
        if misses is None:
            k, _, slot, round_length, queue = key
            rs = queue_responses(
                self.arch.media[k], list(queue),
                own_slot=slot, round_length=round_length,
            )
            misses = self._queues[key] = sum(
                1 for e, r in zip(queue, rs) if e[4] is not None and r is None
            )
        return misses


def simulated_annealing(
    tasks: TaskSet,
    arch: Architecture,
    objective: str = "trt",
    medium: str | None = None,
    iterations: int = 2000,
    start_temp: float = 500.0,
    cooling: float = 0.995,
    seed: int = 0,
) -> AnnealingResult:
    """Run the annealing walk; see the module docstring.

    ``objective``/``medium`` as in
    :func:`repro.baselines.common.evaluate_cost`.  Deterministic for a
    fixed ``seed``.

    Each of the ``iterations`` steps draws a task.  A task with a single
    candidate ECU has no move: the step is skipped, with no cooling and
    no trace entry.  So ``energy_trace`` holds the initial energy plus
    one entry per evaluated move, and can be shorter than
    ``iterations + 1`` (on the served ring shapes about half the steps
    evaluate a move).
    """
    rng = random.Random(seed)
    names = tasks.names()
    candidates = {
        t.name: t.candidate_ecus(arch) for t in tasks
    }
    for n, c in candidates.items():
        if not c:
            raise ValueError(f"task {n} has no candidate ECU")
    placement = {n: rng.choice(candidates[n]) for n in names}
    scorer = MoveScorer(tasks, arch, objective, medium)

    def energy_of() -> tuple[int, bool]:
        score = scorer.score(placement)
        if score is None:
            return UNROUTABLE_ENERGY, False
        violations, cost, feasible = score
        return PENALTY_WEIGHT * violations + cost, feasible

    energy, feas = energy_of()
    best_energy = energy
    best_alloc = derive_allocation(tasks, arch, placement) if feas else None
    best_feasible = feas
    accepted = 0
    trace = [energy]
    temp = start_temp

    for _ in range(iterations):
        name = rng.choice(names)
        options = [p for p in candidates[name] if p != placement[name]]
        if not options:
            continue
        old = placement[name]
        placement[name] = rng.choice(options)
        new_energy, new_feas = energy_of()
        delta = new_energy - energy
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
            energy = new_energy
            accepted += 1
            if new_feas and (
                not best_feasible or new_energy < best_energy
            ):
                best_energy = new_energy
                best_alloc = derive_allocation(tasks, arch, placement)
                best_feasible = True
            elif not best_feasible and new_energy < best_energy:
                best_energy = new_energy
        else:
            placement[name] = old
        temp *= cooling
        trace.append(energy)

    cost = None
    if best_feasible and best_alloc is not None:
        cost = evaluate_cost(tasks, arch, best_alloc, objective, medium)
    return AnnealingResult(
        feasible=best_feasible,
        cost=cost,
        allocation=best_alloc,
        iterations=iterations,
        accepted=accepted,
        energy_trace=trace,
    )
