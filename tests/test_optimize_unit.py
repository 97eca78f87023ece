"""Unit tests of the BIN_SEARCH loop itself (probe pattern, logs,
anytime behaviour, off-by-one regression guard, interval bookkeeping,
bounds-shaped probes and checkpoint persistence)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import IntSolver
from repro.core.optimize import (
    CHECKPOINT_FAILURE_LIMIT,
    ResolvedBounds,
    bin_search,
)
from repro.robust.checkpoint import SearchCheckpoint


class TestBinSearch:
    def test_finds_minimum_and_logs_probes(self):
        s = IntSolver()
        x = s.int_var("x", 0, 63)
        s.require(x >= 37)
        out = bin_search(s, x, 0, 63)
        assert out.feasible and out.optimum == 37
        # First probe is the unconstrained SOLVE; later probes bound x.
        assert out.probes[0].sat
        assert out.num_probes >= 2
        assert any(not p.sat for p in out.probes)  # refutations happened
        # Binary search terminates in O(log range) probes.
        assert out.num_probes <= 9

    def test_unsat_problem(self):
        s = IntSolver()
        x = s.int_var("x", 0, 7)
        s.require(x >= 3)
        s.require(x <= 1)
        out = bin_search(s, x, 0, 7)
        assert not out.feasible
        assert out.optimum is None
        assert out.num_probes == 1

    def test_optimum_at_lower_bound(self):
        # Regression guard for the paper's L := M off-by-one: when the
        # optimum sits at the very bottom the loop must terminate.
        s = IntSolver()
        x = s.int_var("x", 0, 15)
        out = bin_search(s, x, 0, 15)
        assert out.optimum == 0

    def test_optimum_at_upper_bound(self):
        s = IntSolver()
        x = s.int_var("x", 0, 15)
        s.require(x >= 15)
        out = bin_search(s, x, 0, 15)
        assert out.optimum == 15

    def test_singleton_range(self):
        s = IntSolver()
        x = s.int_var("x", 5, 5)
        out = bin_search(s, x, 5, 5)
        assert out.optimum == 5
        assert out.num_probes == 1  # L == R immediately

    def test_on_sat_snapshots_follow_improvements(self):
        s = IntSolver()
        x = s.int_var("x", 0, 63)
        y = s.int_var("y", 0, 63)
        s.require(x + y >= 40)
        snaps = []
        out = bin_search(s, x, 0, 63, on_sat=lambda: snaps.append(s.value(x)))
        assert out.optimum == 0
        assert snaps[-1] == 0  # last snapshot is the optimum's model
        # Costs never increase along the snapshots.
        assert all(a >= b for a, b in zip(snaps, snaps[1:]))

    def test_time_limit_returns_upper_bound(self):
        s = IntSolver()
        x = s.int_var("x", 0, 1023)
        y = s.int_var("y", 0, 1023)
        s.require(x + y >= 1000)
        out = bin_search(s, x, 0, 1023, time_limit=0.0)
        # Expired immediately after the first SAT probe: feasible with
        # some (possibly non-optimal) upper bound.
        assert out.feasible
        assert out.optimum is not None
        assert out.optimum >= 0

    def test_probe_log_fields(self):
        s = IntSolver()
        x = s.int_var("x", 0, 31)
        s.require(x >= 9)
        out = bin_search(s, x, 0, 31)
        for p in out.probes:
            assert p.lo <= p.hi
            assert p.seconds >= 0
            if p.sat:
                assert p.cost is not None and p.lo <= p.cost <= p.hi
            else:
                assert p.cost is None


def _hidden_optimum(optimum, upper):
    """``min x`` over ``x in [0, upper]`` with the optimum at
    ``optimum`` (None = infeasible)."""
    s = IntSolver()
    x = s.int_var("x", 0, upper)
    if optimum is None:
        s.require(x >= 1)
        s.require(x <= 0)
    else:
        s.require(x >= optimum)
    return s, x


def _replay_interval(out, lower):
    """Walk the probe log and yield ``(probe, left, right)`` with the
    interval the search held *before* each bisection probe."""
    first, rest = out.probes[0], out.probes[1:]
    assert first.sat
    left, right = lower, first.cost
    for p in rest:
        yield p, left, right
        if p.sat:
            right = p.cost
        else:
            left = p.hi + 1


class TestBinSearchInterval:
    """The interval bookkeeping of the sequential BIN_SEARCH: which
    probe comes next, and how each answer moves ``[L, R]``."""

    def test_first_probe_is_unconstrained_feasibility(self):
        s, x = _hidden_optimum(31, 97)
        out = bin_search(s, x, 0, 97)
        first = out.probes[0]
        assert (first.lo, first.hi, first.origin) == (0, 97, "initial")
        assert all(p.origin == "bisect" for p in out.probes[1:])

    def test_bisect_probes_are_the_sequential_midpoints(self):
        s, x = _hidden_optimum(31, 97)
        out = bin_search(s, x, 0, 97)
        assert out.optimum == 31 and out.proven
        for p, left, right in _replay_interval(out, 0):
            assert (p.lo, p.hi) == (left, (left + right) // 2)

    def test_probes_stay_inside_the_open_interval(self):
        s, x = _hidden_optimum(40, 255)
        out = bin_search(s, x, 0, 255)
        for p, left, right in _replay_interval(out, 0):
            assert left <= p.hi < right
            if p.sat:
                assert left <= p.cost <= p.hi

    def test_unsat_advances_left_past_the_refuted_midpoint(self):
        s, x = _hidden_optimum(60, 63)
        out = bin_search(s, x, 0, 63)
        refuted = [i for i, p in enumerate(out.probes) if not p.sat]
        assert refuted
        for i in refuted:
            if i + 1 < len(out.probes):
                assert out.probes[i + 1].lo == out.probes[i].hi + 1

    def test_sat_tightens_right_to_the_witness_not_the_midpoint(self):
        # Only 10 and 63 are feasible: the probe [0, 31] must answer
        # with witness 10, and the next midpoint bisects [0, 10].
        s = IntSolver()
        x = s.int_var("x", 0, 63)
        s.require((x == 10) | (x == 63))
        ck = SearchCheckpoint(lower=0, upper=63, left=0, right=63,
                              feasible=True)
        out = bin_search(s, x, 0, 63, checkpoint=ck)
        assert (out.probes[0].hi, out.probes[0].cost) == (31, 10)
        assert out.probes[1].hi == (0 + 10) // 2
        assert out.optimum == 10 and out.proven

    def test_unconstrained_unsat_certifies_infeasible(self):
        s, x = _hidden_optimum(None, 31)
        out = bin_search(s, x, 0, 31)
        assert (out.feasible, out.proven, out.status) == (
            False, True, "infeasible"
        )
        assert out.optimum is None and out.num_probes == 1

    def test_callbacks_see_every_probe_in_order(self):
        s, x = _hidden_optimum(23, 127)
        seen, saved = [], []
        out = bin_search(
            s, x, 0, 127,
            on_probe=lambda p, guard: seen.append(p),
            on_checkpoint=lambda c: saved.append((c.left, c.right)),
        )
        assert seen == out.probes
        assert len(saved) == out.num_probes
        assert saved[-1] == (23, 23)

    def test_failing_checkpoint_saves_disable_persistence(self, tmp_path):
        s, x = _hidden_optimum(77, 255)
        ck = SearchCheckpoint(lower=0, upper=255,
                              path=str(tmp_path / "missing" / "ck.json"))
        out = bin_search(s, x, 0, 255, checkpoint=ck)
        assert out.optimum == 77 and out.proven
        assert out.checkpoint_errors == CHECKPOINT_FAILURE_LIMIT
        assert out.checkpoint_disabled and ck.path is None


    def test_resumed_closed_interval_recertifies_once(self):
        # A checkpoint that already closed [31, 31] carries no model:
        # one [R, R] probe reloads the optimum's model.
        s, x = _hidden_optimum(31, 97)
        ck = SearchCheckpoint(lower=0, upper=97, left=31, right=31,
                              feasible=True)
        snaps = []
        out = bin_search(s, x, 0, 97, checkpoint=ck,
                         on_sat=lambda: snaps.append(s.value(x)))
        assert out.resumed and out.proven and out.optimum == 31
        (p,) = out.probes
        assert (p.lo, p.hi, p.sat, p.origin) == (31, 31, True, "recertify")
        assert snaps == [31]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=120), st.data())
    def test_resume_from_any_probe_reaches_the_same_optimum(self, optimum,
                                                            data):
        upper = 127
        snapshots = []

        def keep(c):
            snapshots.append(SearchCheckpoint(
                lower=c.lower, upper=c.upper, left=c.left, right=c.right,
                feasible=c.feasible, probes=list(c.probes),
            ))

        s, x = _hidden_optimum(optimum, upper)
        straight = bin_search(s, x, 0, upper, on_checkpoint=keep)
        ck = data.draw(st.sampled_from(snapshots), label="checkpoint")
        s2, x2 = _hidden_optimum(optimum, upper)
        resumed = bin_search(s2, x2, 0, upper, checkpoint=ck)
        assert resumed.resumed
        assert (resumed.optimum, resumed.proven) == (
            straight.optimum, straight.proven
        ) == (optimum, True)


class TestBinSearchBounds:
    """Audited bounds and unaudited hints reorder probes; the optimum
    and the proven flag never move."""

    def test_trusted_upper_skips_the_initial_solve(self):
        s, x = _hidden_optimum(9, 63)
        out = bin_search(s, x, 0, 63, bounds=ResolvedBounds(upper=40))
        assert out.optimum == 9 and out.proven
        assert "initial" not in {p.origin for p in out.probes}
        assert out.probes[0].origin == "bounds:confirm"
        assert out.bounds["initial_solve_skipped"] is True

    def test_trusted_lower_is_never_probed_below(self):
        s, x = _hidden_optimum(30, 63)
        out = bin_search(s, x, 0, 63, bounds=ResolvedBounds(lower=30))
        assert out.optimum == 30 and out.proven
        assert all(p.lo >= 30 for p in out.probes)
        assert out.probes[0].origin == "bounds:floor"

    @pytest.mark.parametrize("hint", [5, 20, 50])
    def test_upper_hint_costs_at_most_one_probe(self, hint):
        s, x = _hidden_optimum(20, 63)
        out = bin_search(s, x, 0, 63,
                         bounds=ResolvedBounds(upper_hint=hint))
        assert out.optimum == 20 and out.proven
        assert out.probes[0].origin == "bounds:upper_hint"
        assert out.probes[0].sat == (hint >= 20)

    def test_exact_lower_hint_closes_the_floor_in_one_probe(self):
        s, x = _hidden_optimum(20, 63)
        out = bin_search(s, x, 0, 63,
                         bounds=ResolvedBounds(lower_hint=20))
        assert out.optimum == 20 and out.proven
        (p,) = [p for p in out.probes if p.origin == "bounds:lower_hint"]
        assert (p.hi, p.sat) == (19, False)

    def test_out_of_range_bounds_are_ignored(self):
        s, x = _hidden_optimum(20, 63)
        out = bin_search(s, x, 0, 63,
                         bounds=ResolvedBounds(upper=500, upper_hint=-3))
        assert out.optimum == 20 and out.proven
        assert out.probes[0].origin == "initial"


    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=63), st.data())
    def test_consistent_bounds_never_move_the_optimum(self, optimum, data):
        # Audited bounds must bracket the optimum; hints may be wrong.
        maybe = (lambda lo, hi: data.draw(
            st.integers(min_value=lo, max_value=hi) | st.none()))
        rb = ResolvedBounds(
            lower=maybe(0, optimum), upper=maybe(optimum, 63),
            lower_hint=maybe(0, 63), upper_hint=maybe(0, 63),
        )
        s, x = _hidden_optimum(optimum, 63)
        out = bin_search(s, x, 0, 63, bounds=rb)
        assert (out.optimum, out.proven) == (optimum, True)


class TestBinSearchProperty:
    """Any hidden optimum in any range (or none at all): the search
    closes ``[opt, opt]`` in O(log range) probes."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=200) | st.none())
    def test_converges_to_hidden_optimum(self, upper, optimum):
        if optimum is not None:
            optimum = min(optimum, upper)
        s, x = _hidden_optimum(optimum, upper)
        out = bin_search(s, x, 0, upper)
        assert out.proven
        assert out.optimum == optimum
        assert out.feasible == (optimum is not None)
        assert out.num_probes <= upper.bit_length() + 2
