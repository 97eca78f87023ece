"""Tests for the heuristic/exhaustive baseline allocators and their
agreement with the SAT-based optimum on small instances."""

import pytest

from repro.baselines import (
    branch_and_bound,
    derive_allocation,
    evaluate_cost,
    greedy_first_fit,
    simulated_annealing,
)
from repro.baselines.common import route_between
from repro.core import Allocator, MinimizeTRT
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


def ring_arch(n=2, min_slot=50):
    ecus = [Ecu(f"p{i}") for i in range(n)]
    return Architecture(
        ecus=ecus,
        media=[Medium("ring", TOKEN_RING, tuple(e.name for e in ecus),
                      bit_rate=1_000_000, frame_overhead_bits=0,
                      min_slot=min_slot, slot_overhead=10)],
    )


def hier_arch():
    return Architecture(
        ecus=[Ecu("a"), Ecu("g", allow_tasks=False), Ecu("b")],
        media=[
            Medium("k1", TOKEN_RING, ("a", "g"), bit_rate=1_000_000,
                   frame_overhead_bits=0, min_slot=50, slot_overhead=10,
                   gateway_service=30),
            Medium("k2", TOKEN_RING, ("g", "b"), bit_rate=1_000_000,
                   frame_overhead_bits=0, min_slot=50, slot_overhead=10,
                   gateway_service=30),
        ],
    )


class TestRouting:
    def test_colocated(self):
        arch = ring_arch()
        assert route_between(arch, "p0", "p0") == ()

    def test_direct(self):
        arch = ring_arch()
        assert route_between(arch, "p0", "p1") == ("ring",)

    def test_two_hop(self):
        arch = hier_arch()
        assert route_between(arch, "a", "b") == ("k1", "k2")

    def test_gateway_endpoint_returns_direct(self):
        arch = hier_arch()
        # g -> b share medium k2 directly.
        assert route_between(arch, "g", "b") == ("k2",)

    def test_no_route(self):
        arch = Architecture(
            ecus=[Ecu("a"), Ecu("b"), Ecu("c"), Ecu("d")],
            media=[Medium("k1", CAN, ("a", "b")),
                   Medium("k2", CAN, ("c", "d"))],
        )
        assert route_between(arch, "a", "c") is None


class TestDeriveAllocation:
    def test_slot_table_covers_frames(self):
        arch = ring_arch()
        a = Task("a", 2000, {"p0": 10}, 2000,
                 messages=(Message("b", 300, 1000),),
                 allowed=frozenset({"p0"}))
        b = Task("b", 2000, {"p1": 10}, 2000, allowed=frozenset({"p1"}))
        ts = TaskSet([a, b])
        alloc = derive_allocation(ts, arch, {"a": "p0", "b": "p1"})
        assert alloc is not None
        # 300-bit frame = 300 us + 10 overhead on the sender slot.
        assert alloc.slot_ticks[("ring", "p0")] == 310
        assert alloc.slot_ticks[("ring", "p1")] == 50

    def test_derive_routes_through_gateway(self):
        arch = hier_arch()
        a = Task("a", 5000, {"a": 10}, 5000,
                 messages=(Message("b", 100, 2000),))
        b = Task("b", 5000, {"b": 10}, 5000)
        ts = TaskSet([a, b])
        alloc = derive_allocation(ts, arch, {"a": "a", "b": "b"})
        assert alloc is not None
        from repro.analysis.allocation import MsgRef
        assert alloc.message_path[MsgRef("a", 0)] == ("k1", "k2")
        # Gateway's slot on k2 carries the forwarded frame.
        assert alloc.slot_ticks[("k2", "g")] == 110

    def test_evaluate_cost_objectives(self):
        arch = ring_arch()
        a = Task("a", 2000, {"p0": 100, "p1": 100}, 2000)
        ts = TaskSet([a])
        alloc = derive_allocation(ts, arch, {"a": "p0"})
        assert evaluate_cost(ts, arch, alloc, "trt", "ring") == 100
        assert evaluate_cost(ts, arch, alloc, "sum_trt") == 100
        assert evaluate_cost(ts, arch, alloc, "sum_resp") == 100
        with pytest.raises(ValueError):
            evaluate_cost(ts, arch, alloc, "nope")


class TestGreedy:
    def test_balances_load(self):
        arch = ring_arch(2)
        tasks = [
            Task(f"t{i}", 100, {"p0": 40, "p1": 40}, 100) for i in range(4)
        ]
        res = greedy_first_fit(TaskSet(tasks), arch)
        assert res.feasible
        on0 = [t for t, p in res.placement.items() if p == "p0"]
        assert len(on0) == 2

    def test_respects_separation(self):
        arch = ring_arch(2)
        a = Task("a", 100, {"p0": 10, "p1": 10}, 100,
                 separated_from=frozenset({"b"}))
        b = Task("b", 100, {"p0": 10, "p1": 10}, 100)
        res = greedy_first_fit(TaskSet([a, b]), arch)
        assert res.feasible
        assert res.placement["a"] != res.placement["b"]

    def test_reports_infeasible(self):
        arch = ring_arch(2)
        tasks = [
            Task(f"t{i}", 100, {"p0": 70, "p1": 70}, 100) for i in range(3)
        ]
        res = greedy_first_fit(TaskSet(tasks), arch)
        assert not res.feasible


class TestAnnealing:
    def test_finds_feasible_solution(self):
        arch = ring_arch(2)
        a = Task("a", 100, {"p0": 60, "p1": 60}, 100)
        b = Task("b", 100, {"p0": 60, "p1": 60}, 100)
        res = simulated_annealing(TaskSet([a, b]), arch,
                                  objective="sum_resp", iterations=200)
        assert res.feasible
        assert res.allocation.task_ecu["a"] != res.allocation.task_ecu["b"]

    def test_deterministic_for_seed(self):
        arch = ring_arch(2)
        tasks = [Task(f"t{i}", 100, {"p0": 20, "p1": 20}, 100)
                 for i in range(4)]
        ts = TaskSet(tasks)
        r1 = simulated_annealing(ts, arch, objective="sum_resp",
                                 iterations=100, seed=7)
        r2 = simulated_annealing(ts, arch, objective="sum_resp",
                                 iterations=100, seed=7)
        assert r1.cost == r2.cost
        assert r1.energy_trace == r2.energy_trace

    def test_trt_objective_reduces_cost(self):
        # Two senders: co-locating receivers avoids ring traffic.
        arch = ring_arch(2, min_slot=50)
        a = Task("a", 2000, {"p0": 100, "p1": 100}, 2000,
                 messages=(Message("b", 300, 1500),))
        b = Task("b", 2000, {"p0": 100, "p1": 100}, 2000)
        ts = TaskSet([a, b])
        res = simulated_annealing(ts, arch, objective="trt", medium="ring",
                                  iterations=300, seed=3)
        assert res.feasible
        assert res.cost == 100  # co-located: both slots stay at min

    def test_energy_trace_monotone_start(self):
        arch = ring_arch(2)
        tasks = [Task(f"t{i}", 100, {"p0": 20, "p1": 20}, 100)
                 for i in range(3)]
        res = simulated_annealing(TaskSet(tasks), arch,
                                  objective="sum_resp", iterations=50)
        assert len(res.energy_trace) >= 1


class TestBranchBound:
    def test_matches_sat_optimum(self):
        arch = ring_arch(2)
        a = Task("a", 2000, {"p0": 100, "p1": 100}, 2000,
                 messages=(Message("b", 300, 1500),),
                 separated_from=frozenset({"b"}))
        b = Task("b", 2000, {"p0": 100, "p1": 100}, 2000)
        c = Task("c", 2000, {"p0": 500, "p1": 500}, 2000)
        ts = TaskSet([a, b, c])
        bb = branch_and_bound(ts, arch, objective="trt", medium="ring")
        sat = Allocator(ts, arch).minimize(MinimizeTRT("ring"))
        assert bb.feasible and sat.feasible
        assert bb.cost == sat.cost

    def test_prunes_infeasible(self):
        arch = ring_arch(2)
        tasks = [Task(f"t{i}", 100, {"p0": 70, "p1": 70}, 100)
                 for i in range(3)]
        bb = branch_and_bound(TaskSet(tasks), arch,
                              objective="sum_resp")
        assert not bb.feasible

    def test_node_limit(self):
        arch = ring_arch(3)
        tasks = [Task(f"t{i}", 1000, {"p0": 10, "p1": 10, "p2": 10}, 1000)
                 for i in range(5)]
        with pytest.raises(RuntimeError):
            branch_and_bound(TaskSet(tasks), arch, objective="sum_resp",
                             node_limit=10)

    def test_separation_pruning(self):
        arch = ring_arch(2)
        a = Task("a", 1000, {"p0": 10, "p1": 10}, 1000,
                 separated_from=frozenset({"b"}))
        b = Task("b", 1000, {"p0": 10, "p1": 10}, 1000)
        bb = branch_and_bound(TaskSet([a, b]), arch, objective="sum_resp")
        assert bb.feasible
        assert (
            bb.allocation.task_ecu["a"] != bb.allocation.task_ecu["b"]
        )


class TestRunHeuristic:
    """``run_heuristic`` is the one dispatcher the supervisor's fallback
    chain and the portfolio's baseline sweep share; both report the
    cost and allocation they reported with their own copies."""

    #: tindell_partition(7) on the tindell ring, objective trt:ring.
    PINNED = {
        "greedy": (66, {"c0_t0": "p0", "c0_t1": "p2", "c0_t2": "p3",
                        "c0_t3": "p4", "c0_t4": "p3", "c1_t0": "p1",
                        "c1_t1": "p4"}),
        "annealing": (39, {"c0_t0": "p0", "c0_t1": "p3", "c0_t2": "p3",
                           "c0_t3": "p3", "c0_t4": "p3", "c1_t0": "p1",
                           "c1_t1": "p3"}),
        "genetic": (39, {"c0_t0": "p0", "c0_t1": "p3", "c0_t2": "p3",
                         "c0_t3": "p3", "c0_t4": "p3", "c1_t0": "p1",
                         "c1_t1": "p2"}),
    }

    @pytest.fixture(scope="class")
    def system(self):
        from repro.workloads import tindell_architecture, tindell_partition

        return tindell_partition(7), tindell_architecture()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_dispatcher_matches_pinned(self, system, name):
        from repro.baselines import run_heuristic

        feasible, alloc, cost = run_heuristic(name, *system, "trt", "ring")
        assert feasible
        assert (cost, alloc.task_ecu) == self.PINNED[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_supervisor_fallback_matches_pinned(self, system, name,
                                                monkeypatch):
        from repro.core import SolveRequest
        from repro.robust import SolveSupervisor

        monkeypatch.setattr(
            Allocator, "minimize",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("exact stages off")),
        )
        out = SolveSupervisor(*system, request=SolveRequest(
            objective=MinimizeTRT("ring"), heuristics=(name,),
        )).solve()
        assert out.status == "heuristic"
        assert (out.cost, out.allocation.task_ecu) == self.PINNED[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_portfolio_cell_matches_pinned(self, system, name):
        from repro.core.portfolio import _baseline_cell
        from repro.io import system_to_dict

        feasible, cost, _ = _baseline_cell(
            (name, system_to_dict(*system), ("trt", "ring"))
        )
        assert (feasible, cost) == (True, self.PINNED[name][0])

    def test_unknown_name_raises(self, system):
        from repro.baselines import run_heuristic

        with pytest.raises(ValueError, match="unknown heuristic 'tabu'"):
            run_heuristic("tabu", *system, "trt", "ring")
