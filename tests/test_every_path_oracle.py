"""The optimum against an exact oracle on every execution path.

One binary search runs every solve; what varies is the path through
it: guarded probes on one solver or a fresh encoding per probe
(``reuse_learned``), with or without the relaxation bounds provider,
certified or not, straight or interrupted and resumed from a
checkpoint.  On a small ring, CAN and gateway system each path must
report the ``{cost, proven, status}`` envelope of
:func:`repro.baselines.branch_and_bound`'s exhaustive optimum -- so all
paths agree with each other too -- and no heuristic of
:func:`repro.baselines.run_heuristic` may report a cost below it.
"""

import pytest

from repro.baselines import HEURISTICS, branch_and_bound, run_heuristic
from repro.bounds import RelaxationBoundsProvider
from repro.core import (
    Allocator,
    MinimizeCanUtilization,
    MinimizeSumTRT,
    MinimizeTRT,
    SolveRequest,
)
from repro.core.objectives import objective_spec
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
from repro.robust import Budget
from tests.test_chaos_sites import tiny_system


def can_system():
    """Three tasks on a three-ECU CAN bus; ``a`` and ``b`` are separated,
    so at least their message crosses the bus."""
    arch = Architecture(
        ecus=[Ecu("p0"), Ecu("p1"), Ecu("p2")],
        media=[Medium("bus", CAN, ("p0", "p1", "p2"), bit_rate=500_000,
                      tick_us=10)],
    )
    anywhere = ("p0", "p1", "p2")
    tasks = TaskSet([
        Task("a", 1000, dict.fromkeys(anywhere, 300), 1000,
             messages=(Message("b", 64, 1000),),
             separated_from=frozenset({"b"})),
        Task("b", 1000, dict.fromkeys(anywhere, 300), 1000,
             messages=(Message("c", 128, 1000),)),
        Task("c", 2000, dict.fromkeys(anywhere, 500), 2000,
             messages=(Message("a", 32, 2000),)),
    ])
    return tasks, arch


def gateway_system():
    """Two token rings joined by a task-free gateway: ``u1 -> u2`` must
    cross it, ``u3`` picks a side."""
    ring = dict(bit_rate=1_000_000, frame_overhead_bits=0, min_slot=50,
                slot_overhead=10, gateway_service=30)
    arch = Architecture(
        ecus=[Ecu("a0"), Ecu("a1"), Ecu("g", allow_tasks=False),
              Ecu("b0")],
        media=[Medium("k1", TOKEN_RING, ("a0", "a1", "g"), **ring),
               Medium("k2", TOKEN_RING, ("g", "b0"), **ring)],
    )
    tasks = TaskSet([
        Task("u1", 5000, {"a0": 300}, 5000,
             messages=(Message("u2", 100, 2000),)),
        Task("u2", 5000, {"b0": 300}, 5000),
        Task("u3", 5000, {"a0": 300, "a1": 300, "b0": 300}, 5000,
             messages=(Message("u1", 60, 2500),),
             separated_from=frozenset({"u1"})),
    ])
    return tasks, arch


#: name -> (system, objective, branch_and_bound objective/medium, a
#: conflict budget that interrupts both probe modes after a model).
SYSTEMS = {
    "ring": (tiny_system, MinimizeTRT("ring"), ("trt", "ring"), 10),
    "can": (can_system, MinimizeCanUtilization("bus"),
            ("can_util", "bus"), 10),
    "gateway": (gateway_system, MinimizeSumTRT(), ("sum_trt", None), 200),
}


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def case(request):
    make, objective, (spec, medium), conflicts = SYSTEMS[request.param]
    tasks, arch = make()
    oracle = branch_and_bound(tasks, arch, objective=spec, medium=medium)
    assert oracle.feasible
    expected = {"cost": oracle.cost, "proven": True, "status": "optimal"}
    return tasks, arch, objective, expected, conflicts


def _solve(case, **options):
    tasks, arch, objective, _, _ = case
    return Allocator(tasks, arch).minimize(
        request=SolveRequest(objective=objective, **options)
    )


def _envelope(res) -> dict:
    return {"cost": res.cost, "proven": res.proven, "status": res.status}


def _provider(on: bool) -> tuple:
    return (RelaxationBoundsProvider(),) if on else ()


@pytest.mark.parametrize("certify", [False, True],
                         ids=["plain", "certify"])
@pytest.mark.parametrize("bounds", [False, True],
                         ids=["cold", "relaxation"])
@pytest.mark.parametrize("reuse", [True, False],
                         ids=["incremental", "rebuild"])
def test_every_path_reaches_the_oracle(case, reuse, bounds, certify):
    res = _solve(case, reuse_learned=reuse, bounds=_provider(bounds),
                 certify=certify)
    assert _envelope(res) == case[3]
    assert res.verified
    if certify:
        assert res.certified, res.certificate.summary()
    # Every probe says why it ran, in both probe modes.
    assert all(p.origin for p in res.outcome.probes)
    assert bool(res.outcome.bounds.get("providers")) == bounds


@pytest.mark.parametrize("reuse", [True, False],
                         ids=["incremental", "rebuild"])
def test_interrupted_then_resumed_reaches_the_oracle(case, reuse,
                                                     tmp_path):
    ck = str(tmp_path / "ck.json")
    first = _solve(case, reuse_learned=reuse, checkpoint=ck,
                   budget=Budget(max_conflicts=case[4]))
    assert first.status == "upper_bound"  # cut mid-search, with a model
    resumed = _solve(case, reuse_learned=reuse, checkpoint=ck,
                     certify=True)
    assert resumed.outcome.resumed
    assert _envelope(resumed) == case[3]
    assert resumed.certified, resumed.certificate.summary()


def test_rebuild_provider_saves_probes(case):
    cold = _solve(case, reuse_learned=False)
    bounded = _solve(case, reuse_learned=False,
                     bounds=_provider(True))
    assert _envelope(cold) == _envelope(bounded) == case[3]
    assert bounded.outcome.num_probes < cold.outcome.num_probes
    assert bounded.outcome.bounds_hits > 0


def test_rebuild_honours_bounds_checkpoint_and_certify(tmp_path):
    """A certified, bounded, checkpointed fresh-encoding solve writes
    its checkpoint, records bounds provenance and resumes proven."""
    tasks, arch = tiny_system()
    ck = tmp_path / "ck.json"
    request = SolveRequest(
        objective=MinimizeTRT("ring"), reuse_learned=False, certify=True,
        bounds=_provider(True), checkpoint=str(ck),
    )
    res = Allocator(tasks, arch).minimize(request=request)
    assert (res.cost, res.proven, res.certified) == (160, True, True)
    assert ck.exists()
    assert res.outcome.bounds["providers"][0]["provider"] == "relaxation"
    assert [p.origin for p in res.outcome.probes] == ["bounds:confirm"]
    again = Allocator(tasks, arch).minimize(request=request)
    assert again.outcome.resumed
    assert (again.cost, again.proven, again.certified) == (160, True, True)


@pytest.mark.parametrize("name", HEURISTICS)
def test_no_heuristic_beats_the_oracle(case, name):
    """A heuristic's cost is only an upper bound: a feasible one never
    undercuts the exhaustive optimum."""
    tasks, arch, objective, expected, _ = case
    feasible, _, cost = run_heuristic(name, tasks, arch,
                                      *objective_spec(objective))
    assert feasible  # so the bound below is never checked vacuously
    assert cost >= expected["cost"]
