"""Tests of cooperative solve budgets (repro.robust.budget).

Covers the accounting itself, mid-probe interruption of the CDCL loop,
solver usability after an interrupt, and the honest ``proven`` flag on
optimization results.
"""

import pytest

from repro.arith import IntSolver
from repro.core import SolveRequest
from repro.core.optimize import bin_search
from repro.robust import Budget, BudgetExpired


class TestBudgetAccounting:
    def test_conflict_limit_is_exact(self):
        b = Budget(max_conflicts=3)
        b.start()
        assert not b.step(conflicts=1)
        assert not b.step(conflicts=1)
        assert b.step(conflicts=1)  # 3/3: just expired
        assert b.expired()
        assert "conflict budget" in b.expired_reason

    def test_decision_limit(self):
        b = Budget(max_decisions=2)
        assert not b.step(decisions=1)
        assert b.step(decisions=1)
        assert "decision budget" in b.expired_reason

    def test_expired_stays_expired(self):
        b = Budget(max_conflicts=1)
        assert b.step(conflicts=1)
        assert b.step()  # keeps returning True without further charges
        assert b.conflicts_used == 1

    def test_wall_clock_checked_periodically(self):
        b = Budget(wall_seconds=0.0, check_every=4)
        b.start()
        # The clock is only consulted every check_every-th step...
        assert not b.step(decisions=1)
        assert not b.step(decisions=1)
        assert not b.step(decisions=1)
        assert b.step(decisions=1)  # ...the 4th tick sees the deadline
        assert "wall-clock" in b.expired_reason

    def test_expired_rechecks_clock_immediately(self):
        b = Budget(wall_seconds=0.0)
        b.start()
        assert b.expired()

    def test_unlimited_budget_never_expires(self):
        b = Budget()
        b.start()
        for _ in range(1000):
            assert not b.step(conflicts=1, decisions=1)
        assert not b.expired()

    def test_start_is_idempotent(self):
        b = Budget(wall_seconds=100.0)
        b.start()
        first = b._deadline
        b.start()
        assert b._deadline == first


def _hard_instance():
    """A problem needing a real search (hundreds of decisions)."""
    s = IntSolver()
    x = s.int_var("x", 0, 1023)
    y = s.int_var("y", 0, 1023)
    s.require(x + y >= 777)
    return s, x


class TestSolverInterruption:
    def test_budget_expired_raised_mid_search(self):
        s, x = _hard_instance()
        with pytest.raises(BudgetExpired):
            s.solve(budget=Budget(max_decisions=3))

    def test_solver_usable_after_interrupt(self):
        s, x = _hard_instance()
        with pytest.raises(BudgetExpired):
            s.solve(budget=Budget(max_decisions=3))
        # The engine backtracked to level 0 and stays usable: the same
        # instance solves fine without a budget afterwards.
        assert s.solve()
        assert isinstance(s.value(x), int)  # model is loaded

    def test_certified_unsat_beats_budget_expiry(self):
        # A definitive level-0 UNSAT must be reported as UNSAT even when
        # the budget would have expired on the very conflict that proved
        # it -- a certificate is strictly better than "unknown".
        s = IntSolver()
        x = s.int_var("x", 0, 7)
        s.require(x >= 5)
        s.require(x <= 2)
        assert s.solve(budget=Budget(max_conflicts=1)) is False


class TestBinSearchUnderBudget:
    def test_zero_budget_yields_unknown(self):
        s, x = _hard_instance()
        out = bin_search(s, x, 0, 1023, budget=Budget(max_decisions=1))
        assert out.status == "unknown"
        assert not out.feasible
        assert not out.proven
        assert out.interrupted
        assert out.interrupt_reason
        assert out.probes[-1].interrupted

    def test_mid_search_interrupt_keeps_anytime_bound(self):
        # Measure an uninterrupted run, then rerun with roughly a third
        # of its decision budget: the search must stop with an honest
        # (feasible, unproven) upper bound or an honest unknown -- never
        # a fake certificate.
        s, x = _hard_instance()
        full = bin_search(s, x, 0, 1023)
        assert full.status == "optimal" and full.optimum == 0
        decisions = s.stats.decisions

        s2, x2 = _hard_instance()
        out = bin_search(s2, x2, 0, 1023,
                         budget=Budget(max_decisions=max(2, decisions // 3)))
        assert out.interrupted
        assert not out.proven
        assert out.status in ("upper_bound", "unknown")
        if out.feasible:
            assert out.optimum is not None
            assert out.optimum >= full.optimum

    def test_generous_budget_does_not_change_the_answer(self):
        s, x = _hard_instance()
        out = bin_search(s, x, 0, 1023, budget=Budget(max_decisions=10**9))
        assert out.status == "optimal"
        assert out.optimum == 0
        assert out.proven and not out.interrupted

    def test_one_budget_spans_all_probes(self):
        budget = Budget(max_decisions=10**9)
        s, x = _hard_instance()
        bin_search(s, x, 0, 1023, budget=budget)
        # Charges accumulated across every probe of the run.
        assert budget.decisions_used == s.stats.decisions


class TestAllocatorProvenFlag:
    def _system(self):
        from repro.model import (
            TOKEN_RING,
            Architecture,
            Ecu,
            Medium,
            Message,
            Task,
            TaskSet,
        )

        arch = Architecture(
            ecus=[Ecu("p0"), Ecu("p1")],
            media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                          bit_rate=1_000_000, frame_overhead_bits=0,
                          min_slot=50, slot_overhead=10)],
        )
        tasks = TaskSet([
            Task("a", 2000, {"p0": 400, "p1": 400}, 2000,
                 messages=(Message("b", 100, 1000),),
                 separated_from=frozenset({"b"})),
            Task("b", 2000, {"p0": 400, "p1": 400}, 2000),
        ])
        return tasks, arch

    def test_full_solve_is_proven(self):
        from repro.core import Allocator, MinimizeTRT

        tasks, arch = self._system()
        res = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
        assert res.feasible and res.proven
        assert res.status == "optimal"

    def test_starved_solve_is_honest(self):
        from repro.core import Allocator, MinimizeTRT

        tasks, arch = self._system()
        res = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"),
            request=SolveRequest(budget=Budget(max_decisions=2)),
        )
        assert not res.proven
        assert res.status in ("upper_bound", "unknown")
        assert res.outcome.interrupted

    def test_starved_rebuild_strategy_is_honest(self):
        from repro.core import Allocator, MinimizeTRT

        tasks, arch = self._system()
        res = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"),
            request=SolveRequest(
                reuse_learned=False, budget=Budget(max_decisions=2)),
        )
        assert not res.proven
        assert res.status in ("upper_bound", "unknown")

    def test_find_feasible_under_zero_budget_is_unknown(self):
        from repro.core import Allocator

        tasks, arch = self._system()
        res = Allocator(tasks, arch).find_feasible(
            request=SolveRequest(budget=Budget(max_decisions=1))
        )
        assert not res.feasible
        assert res.status == "unknown"
