"""The annealing walk's memoised move scorer against the full analysis.

:class:`repro.baselines.annealing.MoveScorer` composes a placement's
energy from cached per-ECU, per-message and per-queue analysis instead
of running :func:`repro.analysis.feasibility.check_allocation` on every
move.  Three layers of coverage:

1. **Exactness** -- on every step of walks over fixed and generated
   systems, the scorer's ``(violations, cost, feasible)`` equals the
   full check of the derived allocation (its problem count, objective
   cost and verdict), and "no route" coincides with
   :func:`derive_allocation` returning None.  The generated systems run
   under the active hypothesis profile; CI's ``bounds-smoke`` job runs
   this file under the deeper ``deep`` profile of ``conftest.py``.
2. **Walk identity** -- pinned ``(cost, placement, accepted, sha256 of
   the energy trace)`` of walks recorded with the scorer-free walk that
   ran ``check_allocation`` on every move.
3. **Skipped steps** -- a step that draws a task with one candidate ECU
   evaluates nothing and leaves no trace entry.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.feasibility import check_allocation
from repro.baselines import simulated_annealing
from repro.baselines.annealing import MoveScorer
from repro.baselines.common import derive_allocation, evaluate_cost
from repro.model import (
    CAN,
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
)
from repro.workloads import (
    architecture_a,
    architecture_b,
    architecture_c,
    architecture_c_can,
    tindell_architecture,
    tindell_partition,
)
from repro.workloads.scaling import ring_architecture, scaling_taskset


def checked_walk(tasks, arch, objective, medium=None, iterations=120,
                 seed=0):
    """Run a walk whose every score is compared with the full analysis
    of the derived allocation; returns the result and the number of
    scores taken."""
    real = MoveScorer.score
    calls = []

    def score(self, placement):
        got = real(self, placement)
        alloc = derive_allocation(tasks, arch, placement)
        if alloc is None:
            assert got is None, placement
        else:
            report = check_allocation(tasks, arch, alloc)
            cost = evaluate_cost(tasks, arch, alloc, objective, medium)
            want = (len(report.problems), cost, report.schedulable)
            assert got == want, (placement, report.problems)
        calls.append(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MoveScorer, "score", score)
        res = simulated_annealing(tasks, arch, objective=objective,
                                  medium=medium, iterations=iterations,
                                  seed=seed)
    return res, len(calls)


def served(ecus, ntasks):
    return scaling_taskset(ecus, ntasks), ring_architecture(ecus)


def can_bus(blocking):
    arch = tindell_architecture(kind=CAN, name="bus")
    bus = dataclasses.replace(arch.media["bus"],
                              nonpreemptive_blocking=blocking)
    return tindell_partition(8), Architecture(list(arch.ecus.values()),
                                              [bus])


FIXED = {
    **{f"ring{e}-t{n}": (lambda e=e, n=n: served(e, n), "ring")
       for e, n in ((4, 14), (5, 16), (6, 16), (5, 10))},
    "can-blocking": (lambda: can_bus(True), "bus"),
    "can-plain": (lambda: can_bus(False), "bus"),
    "table4-a": (lambda: (tindell_partition(10), architecture_a()),
                 "lower"),
    "table4-b": (lambda: (tindell_partition(10), architecture_b()),
                 "backbone"),
    "table4-c": (lambda: (tindell_partition(10), architecture_c()),
                 "upper"),
    "table4-c-can": (lambda: (tindell_partition(10), architecture_c_can()),
                     "upper"),
}


#: Every fixed system under every objective; ``trt`` needs a token ring.
CASES = [
    (name, objective)
    for name in sorted(FIXED)
    for objective in ("trt", "sum_trt", "sum_resp", "can_util")
    if not (objective == "trt" and name.startswith("can-"))
]


class TestScorerExactness:
    @pytest.mark.parametrize("name,objective", CASES)
    def test_every_step_matches_full_check(self, name, objective):
        build, medium = FIXED[name]
        tasks, arch = build()
        if objective == "trt":
            medium = [k for k, m in arch.media.items()
                      if m.kind is TOKEN_RING][-1]
        res, scores = checked_walk(tasks, arch, objective, medium,
                                   iterations=100, seed=1)
        assert scores == len(res.energy_trace)

    @given(data=st.data())
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    def test_generated_systems(self, data):
        tasks, arch = data.draw(small_systems())
        assume(all(t.candidate_ecus(arch) for t in tasks))
        media = sorted(arch.media)
        rings = [k for k in media if arch.media[k].kind is TOKEN_RING]
        objective = data.draw(st.sampled_from(
            ["sum_trt", "sum_resp", "can_util"] + (["trt"] if rings else [])
        ))
        medium = None
        if objective == "trt":
            medium = data.draw(st.sampled_from(rings))
        elif objective == "can_util":
            medium = data.draw(st.sampled_from(media))
        checked_walk(tasks, arch, objective, medium,
                     iterations=data.draw(st.integers(10, 60)),
                     seed=data.draw(st.integers(0, 2**16)))


_LINK = dict(bit_rate=1_000_000, tick_us=100, frame_overhead_bits=50,
             slot_overhead=1, min_slot=3, gateway_service=5)


@st.composite
def small_systems(draw):
    """Small systems over one bus, two bridged media, a three-medium
    chain or two disconnected media (messages between them have no
    route), with separation, memory caps, release jitter and message
    deadlines that may be too tight to split."""
    topology = draw(st.sampled_from(["one", "bridged", "chain", "split"]))
    n = draw(st.integers({"one": 2, "bridged": 3, "chain": 4,
                          "split": 4}[topology], 5))
    names = [f"p{i}" for i in range(n)]
    kinds = st.sampled_from([TOKEN_RING, CAN])

    def medium(i, members):
        return Medium(f"k{i}", draw(kinds), tuple(members),
                      nonpreemptive_blocking=draw(st.booleans()), **_LINK)

    gateway = None
    if topology == "one":
        media = [medium(0, names)]
    elif topology == "bridged":
        cut = draw(st.integers(1, n - 2))
        media = [medium(0, names[:cut + 1]), medium(1, names[cut:])]
        gateway = names[cut]
    elif topology == "chain":
        media = [medium(0, names[:2]), medium(1, names[1:3]),
                 medium(2, names[2:])]
        gateway = names[1]
    else:
        cut = draw(st.integers(2, n - 2))
        media = [medium(0, names[:cut]), medium(1, names[cut:])]
    gateway_only = gateway is not None and draw(st.booleans())
    ecus = [
        Ecu(p, memory=draw(st.one_of(st.none(), st.integers(0, 6))),
            allow_tasks=not (gateway_only and p == gateway))
        for p in names
    ]
    arch = Architecture(ecus=ecus, media=media)

    n_tasks = draw(st.integers(2, 6))
    tnames = [f"t{i}" for i in range(n_tasks)]
    tasks = []
    for i, t in enumerate(tnames):
        period = draw(st.sampled_from([20, 40, 50, 100, 200]))
        hosts = draw(st.lists(st.sampled_from(names), min_size=1,
                              unique=True))
        wcet = {p: draw(st.integers(1, max(1, period // 3))) for p in hosts}
        deadline = draw(st.integers(max(1, period // 4), period))
        others = [o for o in tnames if o != t]
        messages = tuple(
            Message(target, draw(st.integers(10, 400)),
                    draw(st.integers(1, period)))
            for target in draw(st.lists(st.sampled_from(others),
                                        max_size=2))
        )
        tasks.append(Task(
            t, period, wcet, deadline, messages=messages,
            allowed=draw(st.one_of(
                st.none(), st.frozensets(st.sampled_from(names),
                                         min_size=1))),
            separated_from=draw(st.frozensets(st.sampled_from(others),
                                              max_size=2)),
            release_jitter=draw(st.integers(0, deadline - 1))
            if draw(st.booleans()) else 0,
            memory=draw(st.integers(0, 3)),
        ))
    return TaskSet(tasks), arch


def _trace_digest(trace) -> str:
    return hashlib.sha256(json.dumps(trace).encode()).hexdigest()


def _walk_system(name):
    if name.startswith("ring"):
        ecus, ntasks = name[4:].split("-t")
        return (*served(int(ecus), int(ntasks)), "trt", "ring")
    if name == "tindell-7":
        return (tindell_partition(7), tindell_architecture(), "trt", "ring")
    arch = {"table4-a": architecture_a, "table4-c": architecture_c}[name]
    return tindell_partition(10), arch(), "sum_trt", None


class TestWalkIdentity:
    """800-step walks as ``repaired_upper`` runs them, recorded when
    every move ran the full ``check_allocation``: the memoised scorer
    must walk the same path to the same best state."""

    #: (name, seed) -> (cost, ECU per task in declaration order,
    #: accepted moves, leading 16 hex digits of the sha256 of
    #: json.dumps(energy_trace)).
    PINNED = {
        ("ring4-t14", 0): (
            30, "p0 p3 p3 p3 p3 p1 p0 p1 p0 p2 p1 p1 p1 p3", 341,
            "b9227c053ff5fb8b"),
        ("ring4-t14", 1): (
            30, "p0 p3 p3 p3 p3 p1 p0 p0 p0 p2 p1 p2 p1 p3", 344,
            "2357f37791a428cd"),
        ("ring5-t16", 0): (
            42, "p0 p1 p3 p3 p3 p1 p4 p4 p4 p2 p3 p0 p0 p3 p0 p2", 392,
            "32a5c59f4ce76d46"),
        ("ring5-t16", 1): (
            42, "p0 p1 p3 p3 p3 p1 p3 p4 p4 p2 p0 p1 p0 p3 p0 p0", 367,
            "80d3e6f74acd6120"),
        ("ring6-t16", 0): (
            45, "p0 p1 p3 p3 p3 p1 p3 p3 p4 p2 p5 p5 p5 p3 p5 p5", 375,
            "a1062d386c328e23"),
        ("ring6-t16", 1): (
            45, "p0 p3 p3 p3 p3 p1 p4 p4 p4 p2 p5 p0 p5 p3 p0 p1", 377,
            "01133e8a996c591f"),
        ("ring5-t10", 0): (
            30, "p0 p3 p3 p3 p3 p1 p4 p4 p4 p2", 361, "f02915532c4ec246"),
        ("ring5-t10", 1): (
            30, "p0 p3 p3 p3 p3 p1 p4 p4 p4 p2", 358, "c7362c632534c3ec"),
        ("tindell-7", 0): (
            39, "p0 p3 p3 p3 p3 p1 p3", 428, "1ed76e2d8a6de156"),
        ("tindell-7", 1): (
            39, "p0 p3 p3 p3 p3 p1 p3", 441, "efe39a542d2fc533"),
        ("table4-a", 0): (
            86, "p0 p3 p3 p3 p3 p1 p4 p4 p4 p2", 361, "f4c731ea1dfa9775"),
        ("table4-a", 1): (
            86, "p0 p3 p3 p3 p3 p1 p4 p4 p4 p2", 360, "042eb95c35bfbdd7"),
        ("table4-c", 0): (
            78, "p0 p3 p3 p3 p3 p1 p4 p4 p4 p2", 361, "3aade6d8cb6c2d9f"),
        ("table4-c", 1): (
            78, "p0 p3 p3 p3 p3 p1 p4 p4 p4 p2", 359, "d9999c574ca89f3e"),
    }

    @pytest.mark.parametrize("name,seed", sorted(PINNED))
    def test_walk_is_pinned(self, name, seed):
        tasks, arch, objective, medium = _walk_system(name)
        res = simulated_annealing(tasks, arch, objective=objective,
                                  medium=medium, iterations=800, seed=seed)
        assert res.feasible
        assert list(res.allocation.task_ecu) == tasks.names()
        got = (res.cost, " ".join(res.allocation.task_ecu.values()),
               res.accepted, _trace_digest(res.energy_trace)[:16])
        assert got == self.PINNED[(name, seed)]


class TestSkippedSteps:
    def test_one_score_per_trace_entry(self):
        """The initial state and every evaluated move are scored once
        each; a drawn task with a single candidate ECU is skipped."""
        tasks, arch = served(4, 14)
        assert any(len(t.candidate_ecus(arch)) == 1 for t in tasks)
        res, scores = checked_walk(tasks, arch, "trt", "ring",
                                   iterations=200, seed=0)
        evaluated = scores - 1
        assert evaluated == len(res.energy_trace) - 1
        assert evaluated < res.iterations
