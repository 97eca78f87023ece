"""Differential tests for the propagation backends.

The compiled core (``fast``) must be *bit-identical* to the pure-Python
reference: same trails, same conflicts, same learnt clauses, same DRUP
proof lines, same models, same search counters and the same VSIDS state
(activity bytes, heap order, increments) on every instance.
This is what keeps ``--certify`` and the chaos torture suite valid on
both backends — any divergence is a bug by definition, regardless of
which backend is "right".
"""

from __future__ import annotations

import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robust.budget import Budget, BudgetExpired
from repro.sat import Solver, mklit, neg
from repro.sat.core import backend_status, get_backend, set_default_backend
from repro.sat.literals import VAL_UNASSIGNED

FAST_AVAILABLE = backend_status()["fast"]["available"]

needs_fast = pytest.mark.skipif(
    not FAST_AVAILABLE,
    reason=f"compiled backend unavailable: {backend_status()['fast']['reason']}",
)


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


@st.composite
def cnf_pb_instances(draw):
    """A random mixed CNF+PB instance plus optional assumptions."""
    nvars = draw(st.integers(min_value=3, max_value=14))
    lit = st.integers(min_value=0, max_value=2 * nvars - 1)
    clauses = draw(
        st.lists(
            st.lists(lit, min_size=1, max_size=4),
            min_size=1,
            max_size=nvars * 4,
        )
    )
    n_pbs = draw(st.integers(min_value=0, max_value=4))
    pbs = []
    for _ in range(n_pbs):
        k = draw(st.integers(min_value=1, max_value=min(nvars, 5)))
        variables = draw(
            st.lists(
                st.integers(min_value=0, max_value=nvars - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        lits = [
            mklit(v, draw(st.booleans())) for v in variables
        ]
        coefs = [draw(st.integers(min_value=1, max_value=4)) for _ in lits]
        bound = draw(st.integers(min_value=1, max_value=max(sum(coefs), 1)))
        pbs.append((lits, coefs, bound))
    assumptions = draw(st.lists(lit, max_size=3))
    return nvars, clauses, pbs, assumptions


def _learnt_stream(s: Solver) -> list:
    """Install a learn hook recording every learnt clause with its
    backjump level."""
    stream: list = []

    def hook(learnt, bt):
        stream.append((list(learnt), bt))

    s.learn_hook = hook
    return stream


def _vsids_state(s: Solver) -> dict:
    return {
        "activity": s.activity.tobytes(),
        "cla_act": s.cla_act.tobytes(),
        "order_heap": list(s.order_heap[: s.heap_n]),
        "heap_pos": list(s.heap_pos),
        "var_inc": s.var_inc,
        "cla_inc": s.cla_inc,
    }


def _run(backend: str, instance, with_proof: bool = True):
    """Build and solve the instance on one backend; return everything
    observable: result, trail, learnt clauses (final and per conflict),
    VSIDS state, stats, proof, model."""
    nvars, clauses, pbs, assumptions = instance
    s = Solver(backend=backend)
    s.new_vars(nvars)
    stream = _learnt_stream(s)
    proof = s.start_proof() if with_proof else None
    for cl in clauses:
        s.add_clause(list(cl))
    for lits, coefs, bound in pbs:
        s.add_pb(list(lits), list(coefs), bound)
    res = s.solve(assumptions=list(assumptions))
    observable = {
        "result": res,
        "ok": s.ok,
        "trail": list(s.trail[: s.trail_n]),
        "learnts": [c.lits for c in s.learnts],
        "learnt_stream": stream,
        **_vsids_state(s),
        "conflict_core": list(s.conflict_core),
        "decisions": s.stats.decisions,
        "propagations": s.stats.propagations,
        "conflicts": s.stats.conflicts,
        "restarts": s.stats.restarts,
        "learnt_clauses": s.stats.learnt_clauses,
        "model": s.model() if res else None,
        "proof": proof.to_lines() if with_proof else None,
    }
    if res:
        assert s.check_model()
    return observable, s


class TestDifferential:
    """Pure and fast must produce bit-identical observable state."""

    @needs_fast
    @given(cnf_pb_instances())
    @settings(max_examples=120, deadline=None)
    def test_random_instances_bit_identical(self, instance):
        obs_pure, _ = _run("pure", instance)
        obs_fast, _ = _run("fast", instance)
        assert obs_pure == obs_fast

    @needs_fast
    @given(cnf_pb_instances())
    @settings(max_examples=40, deadline=None)
    def test_incremental_resolve_bit_identical(self, instance):
        """A second solve (learnt clauses retained) must stay in lockstep."""
        _, s_pure = _run("pure", instance, with_proof=False)
        _, s_fast = _run("fast", instance, with_proof=False)
        for s in (s_pure, s_fast):
            if s.ok and s.nvars >= 2:
                s.add_clause([mklit(0), mklit(1)])
        r_pure = s_pure.solve() if s_pure.ok else False
        r_fast = s_fast.solve() if s_fast.ok else False
        assert r_pure == r_fast
        assert list(s_pure.trail[: s_pure.trail_n]) == list(
            s_fast.trail[: s_fast.trail_n]
        )
        assert s_pure.stats.snapshot()["conflicts"] == (
            s_fast.stats.snapshot()["conflicts"]
        )

    @needs_fast
    def test_pigeonhole_unsat_proof_identical(self):
        """A conflict-heavy UNSAT instance: proofs line-for-line equal."""

        def build(backend):
            s = Solver(backend=backend)
            x = [[s.new_var() for _ in range(3)] for _ in range(4)]
            proof = s.start_proof()
            for p in range(4):
                s.add_clause([mklit(x[p][h]) for h in range(3)])
            for h in range(3):
                for p1 in range(4):
                    for p2 in range(p1 + 1, 4):
                        s.add_clause(
                            [neg(mklit(x[p1][h])), neg(mklit(x[p2][h]))]
                        )
            res = s.solve()
            return res, proof.to_lines(), s.stats.snapshot()

        res_p, proof_p, stats_p = build("pure")
        res_f, proof_f, stats_f = build("fast")
        assert res_p is False and res_f is False
        assert proof_p == proof_f
        for key in ("decisions", "propagations", "conflicts",
                    "learnt_clauses", "restarts", "max_trail"):
            assert stats_p[key] == stats_f[key], key

    @needs_fast
    def test_pb_pigeonhole_unsat_identical(self):
        """Same, with the PB propagator doing the work."""

        def build(backend):
            s = Solver(backend=backend)
            x = [[s.new_var() for _ in range(3)] for _ in range(4)]
            for p in range(4):
                s.add_pb([mklit(x[p][h]) for h in range(3)], [1] * 3, 1)
            for h in range(3):
                s.add_pb([neg(mklit(x[p][h])) for p in range(4)], [1] * 4, 3)
            res = s.solve()
            return res, list(s.trail[: s.trail_n]), s.stats.snapshot()

        res_p, trail_p, stats_p = build("pure")
        res_f, trail_f, stats_f = build("fast")
        assert res_p is False and res_f is False
        assert trail_p == trail_f
        assert stats_p["propagations"] == stats_f["propagations"]
        assert stats_p["conflicts"] == stats_f["conflicts"]


def _php(s: Solver, pigeons: int, holes: int, pb: bool) -> None:
    """Pigeonhole PHP(pigeons, holes) as clauses or PB cardinalities
    (the ``php_*`` builders of ``benchmarks/_prop_instances.py``)."""
    x = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        lits = [mklit(x[p][h]) for h in range(holes)]
        if pb:
            s.add_pb(lits, [1] * holes, 1)
        else:
            s.add_clause(lits)
    for h in range(holes):
        if pb:
            s.add_pb([neg(mklit(x[p][h])) for p in range(pigeons)],
                     [1] * pigeons, pigeons - 1)
            continue
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([neg(mklit(x[p1][h])), neg(mklit(x[p2][h]))])


class TestRescale:
    """Both VSIDS rescale branches, reached by a tiny RESCALE_LIMIT."""

    def _solve(self, backend: str, pb: bool):
        s = Solver(backend=backend)
        s.RESCALE_LIMIT = 20.0
        s.max_learnts = 50.0  # frequent _reduce_db: detach under rescale
        _php(s, 7, 6, pb)
        proof = s.start_proof()
        stream = _learnt_stream(s)
        assert s.solve() is False
        return s, {
            "learnt_stream": stream,
            "learnts": [c.lits for c in s.learnts],
            "proof": proof.to_lines(),
            "conflicts": s.stats.conflicts,
            **_vsids_state(s),
        }

    @pytest.mark.parametrize("pb", [False, True], ids=["clauses", "pb"])
    @pytest.mark.parametrize("backend", [
        "pure", pytest.param("fast", marks=needs_fast)])
    def test_rescales_fire_and_learnt_set_is_flagged(self, backend, pb):
        s, _ = self._solve(backend, pb)
        assert s.core.name == backend
        assert s.stats.var_rescales > 0
        assert s.stats.cla_rescales > 0
        assert s.stats.deleted_clauses > 0
        s._reduce_db()
        # The compiled clause rescale walks flags == 1 instead of
        # _learnt_cids: the two sets must coincide.
        flagged = [c for c in range(len(s.cla_off)) if s.cla_flags[c] == 1]
        assert sorted(s._learnt_cids) == flagged

    @needs_fast
    @pytest.mark.parametrize("pb", [False, True], ids=["clauses", "pb"])
    def test_rescaled_search_bit_identical(self, pb):
        _, obs_pure = self._solve("pure", pb)
        _, obs_fast = self._solve("fast", pb)
        assert obs_pure == obs_fast


#: ``(conflicts, decisions, restarts)`` when the budget expires on
#: PHP(7, 6) with ``max_learnts = 50``, keyed by (PB encoding, limit)
#: and the limit's value.  Recorded with the per-step search loop that
#: ``core.search`` replaced; the return points must not move them.
EXPIRY_PINS = {
    (False, "max_conflicts"): {
        1: (1, 16, 0), 2: (2, 16, 0), 63: (63, 94, 0), 64: (64, 94, 0),
        65: (65, 94, 0), 500: (500, 645, 2)},
    (False, "max_decisions"): {
        1: (0, 1, 0), 2: (0, 2, 0), 63: (39, 63, 0), 64: (39, 64, 0),
        65: (39, 65, 0), 500: (381, 500, 2)},
    (True, "max_conflicts"): {
        1: (1, 16, 0), 2: (2, 16, 0), 63: (63, 90, 0), 64: (64, 90, 0),
        65: (65, 90, 0), 500: (500, 633, 2)},
    (True, "max_decisions"): {
        1: (0, 1, 0), 2: (0, 2, 0), 63: (38, 63, 0), 64: (38, 64, 0),
        65: (38, 65, 0), 500: (387, 500, 2)},
}

BACKENDS = ["pure", pytest.param("fast", marks=needs_fast)]


def _assert_heap_complete(s: Solver) -> None:
    """Every unassigned variable is on the VSIDS heap."""
    missing = [v for v in range(s.nvars)
               if s.assigns[v] == VAL_UNASSIGNED and s.heap_pos[v] < 0]
    assert missing == []


class TestBudgetReturnPoints:
    """``search`` stops wherever a budget step might expire; the solver
    charges the step and either resumes the same iteration or stops."""

    @staticmethod
    def _expire(backend: str, pb: bool, limit: str, k: int) -> dict:
        s = Solver(backend=backend)
        s.max_learnts = 50.0  # reductions inside the budgeted run
        _php(s, 7, 6, pb)
        proof = s.start_proof()
        stream = _learnt_stream(s)
        budget = Budget(**{limit: k})
        with pytest.raises(BudgetExpired):
            s.solve(budget=budget)
        assert s.trail_lim_n == 0
        _assert_heap_complete(s)
        return {
            "counts": (s.stats.conflicts, s.stats.decisions,
                       s.stats.restarts),
            "used": (budget.conflicts_used, budget.decisions_used),
            "trail": list(s.trail[: s.trail_n]),
            "learnts": [c.lits for c in s.learnts],
            "learnt_stream": stream,
            "proof": proof.to_lines(),
            **_vsids_state(s),
        }

    @pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 500])
    @pytest.mark.parametrize("limit", ["max_conflicts", "max_decisions"])
    @pytest.mark.parametrize("pb", [False, True], ids=["clauses", "pb"])
    def test_expiry_is_pinned_and_bit_identical(self, pb, limit, k):
        pure = self._expire("pure", pb, limit, k)
        assert pure["counts"] == EXPIRY_PINS[(pb, limit)][k]
        assert pure["used"] == pure["counts"][:2]
        if FAST_AVAILABLE:
            assert self._expire("fast", pb, limit, k) == pure

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_decision_expiry_keeps_the_variable_on_the_heap(self, backend):
        """An expiry charged to a decision used to drop the popped
        variable from the heap for good: a later solve() then answered
        SAT with (a or b) false."""
        s = Solver(backend=backend)
        a, b = s.new_vars(2)
        s.add_clause([mklit(a), mklit(b)])
        for _ in range(2):
            with pytest.raises(BudgetExpired):
                s.solve(budget=Budget(max_decisions=1))
            _assert_heap_complete(s)
        assert s.solve() is True
        assert s.check_model()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wall_clock_is_read_every_check_every_steps(self, backend,
                                                         monkeypatch):
        import repro.robust.budget as budget_mod

        reads = []
        clock = budget_mod.time.monotonic

        def monotonic():
            reads.append(1)
            return clock()

        s = Solver(backend=backend)
        _php(s, 7, 6, False)
        budget = Budget(wall_seconds=1000.0, max_conflicts=300)
        budget.start()
        monkeypatch.setattr(budget_mod.time, "monotonic", monotonic)
        with pytest.raises(BudgetExpired):
            s.solve(budget=budget)
        steps = budget.conflicts_used + budget.decisions_used
        # solve() re-checks once on entry; step() every check_every.
        assert len(reads) == 1 + (steps - 1) // budget.check_every


class StopTally:
    """Backend proxy recording the stop code of every ``search`` call."""

    def __init__(self, core):
        self._core = core
        self.stops: list[int] = []

    def __getattr__(self, name):
        return getattr(self._core, name)

    def search(self, s, st):
        status = self._core.search(s, st)
        self.stops.append(status)
        return status


def _counters(s: Solver) -> dict:
    """The search counters of ``s.stats`` (no timing, no backend name)."""
    snap = s.stats.snapshot()
    for key in ("solve_seconds", "props_per_sec", "backend"):
        del snap[key]
    return snap


class TestReduceResume:
    """After ``_reduce_db`` the search goes on to the decision without
    re-checking the threshold, so a learnt DB that reduction cannot
    shrink below ``max_learnts + trail_n`` cannot stall it."""

    @staticmethod
    def _run(backend: str):
        s = Solver(backend=backend)
        s.max_learnts = 0.0
        s.learnt_growth = 1.0
        _php(s, 6, 5, False)
        s.core = StopTally(s.core)
        assert s.solve() is False
        return s

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_terminates_with_an_undeletable_learnt_db(self, backend):
        from repro.sat.core.pure import SEARCH_REDUCE

        s = self._run(backend)
        assert s.core.stops.count(SEARCH_REDUCE) > 10
        assert len(s.learnts) > 0  # reduction could not empty it

    @needs_fast
    def test_stats_equal_across_backends(self):
        s_pure = self._run("pure")
        s_fast = self._run("fast")
        assert s_pure.core.stops == s_fast.core.stops
        assert _counters(s_pure) == _counters(s_fast)


class TestCrossings:
    """Guard against per-step crossings: the compiled search comes back
    to Python only at a restart, a reduction, a governor tick, a
    learnt-room refill, or with an answer (one per solve)."""

    @needs_fast
    def test_sweep_cell_search_calls_are_bounded(self, monkeypatch):
        import repro.sat.core as core_mod
        from repro.core import Allocator
        from repro.core.objectives import objective_from_spec
        from repro.core.optimize import bin_search
        from repro.sat.core.pure import (
            SEARCH_GOVERNOR,
            SEARCH_REDUCE,
            SEARCH_RESTART,
            SEARCH_ROOM,
        )
        from repro.workloads import random_taskset, ring_architecture

        # The sweep-ring cell u0.6-s1 (TestSearchIdentity's instance).
        monkeypatch.setattr(core_mod, "_default", "fast")
        arch = ring_architecture(3)
        tasks = random_taskset(arch, 6, total_util=0.6, seed=1)
        enc, cost_var, lo, hi, _ = Allocator(tasks, arch)._encode(
            objective_from_spec("sum_resp"))
        sat = enc.solver.sat
        sat.core = StopTally(sat.core)
        assert bin_search(enc.solver, cost_var, lo, hi).optimum == 246
        st = sat.stats
        stops = sat.core.stops
        assert st.search_calls == len(stops)
        assert stops.count(SEARCH_RESTART) == st.restarts
        refills = sum(stops.count(code) for code in (
            SEARCH_REDUCE, SEARCH_GOVERNOR, SEARCH_ROOM))
        assert st.search_calls <= st.restarts + refills + st.solve_calls
        assert st.conflicts > 10 * st.search_calls


class TestBackendSelection:
    def test_default_is_auto(self):
        b = get_backend("auto")
        assert b.name in ("pure", "fast")

    def test_explicit_pure(self):
        assert get_backend("pure").name == "pure"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown SAT backend"):
            get_backend("turbo")
        with pytest.raises(ValueError, match="unknown SAT backend"):
            set_default_backend("turbo")

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_BACKEND", "pure")
        set_default_backend(None)
        assert Solver().stats.backend == "pure"

    def test_process_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_BACKEND", "auto")
        set_default_backend("pure")
        try:
            assert Solver().stats.backend == "pure"
        finally:
            set_default_backend(None)

    def test_fast_falls_back_to_pure_with_reason(self, monkeypatch):
        """An explicit fast request with no compiled core must serve the
        reference backend and record why."""
        import repro.sat.core as core_mod

        monkeypatch.setattr(core_mod, "_fast", False)
        monkeypatch.setattr(core_mod, "_fast_reason", "no C compiler")
        b = get_backend("fast")
        assert b.name == "pure"
        assert b.fallback_reason == "no C compiler"

    @needs_fast
    def test_library_missing_a_symbol_falls_back_with_reason(
        self, monkeypatch, tmp_path
    ):
        """A library lacking one export is a recorded fallback, never an
        AttributeError out of the backend constructor."""
        import repro.sat.core as core_mod
        from repro.sat.core import fast

        src = tmp_path / "partial.c"
        src.write_text("".join(
            f"int {name}(void) {{ return 0; }}\n"
            for name in fast._SYMBOLS if name != "sat_search"
        ))
        lib = tmp_path / "partial.so"
        subprocess.run(
            [fast._find_compiler(), "-shared", "-fPIC", "-o", str(lib),
             str(src)], check=True,
        )
        monkeypatch.setattr(fast, "_build_library",
                            lambda src, cc: (str(lib), None))
        backend, reason = fast.load_fast_backend()
        assert backend is None
        assert "sat_search" in reason
        pure = core_mod._pure_backend()
        monkeypatch.setattr(pure, "fallback_reason", pure.fallback_reason)
        monkeypatch.setattr(core_mod, "_fast", None)
        monkeypatch.setattr(core_mod, "_fast_reason", "")
        b = get_backend("fast")
        assert b.name == "pure"
        assert "sat_search" in b.fallback_reason
        assert "sat_search" in backend_status()["fast"]["reason"]

    @needs_fast
    def test_backend_status_reports_library(self):
        status = backend_status()
        assert status["pure"]["available"] is True
        assert status["fast"]["available"] is True
        assert status["fast"]["library"]

    def test_stats_name_the_active_backend(self):
        s = Solver(backend="pure")
        assert s.stats.backend == "pure"
        assert "backend" in s.stats.snapshot()

    @needs_fast
    def test_same_solver_api_both_backends(self):
        for backend in ("pure", "fast"):
            s = Solver(backend=backend)
            a, b = s.new_vars(2)
            s.add_clause([mklit(a), mklit(b)])
            s.add_clause([neg(mklit(a))])
            assert s.solve() is True
            assert s.model_value(mklit(b)) is True


class TestDetachIsLazy:
    """Satellite: detaching a clause must not scan any watch list."""

    def _chain_solver(self, n_clauses: int = 200):
        """Many clauses all watching the same two literals."""
        s = Solver(backend="pure")
        a, b = s.new_vars(2)
        extras = s.new_vars(n_clauses)
        cids = []
        for v in extras:
            assert s.add_clause([mklit(a), mklit(b), mklit(v)])
            cids.append(s._problem_cids[-1])
        return s, a, b, cids

    def test_detach_touches_no_watch_list(self):
        """O(1) detach: only the dead flag changes; the watcher links
        are untouched (they are reclaimed lazily during propagation)."""
        s, a, b, cids = self._chain_solver()
        head_before = list(s.watch_head)
        next_before = list(s.watch_next)
        victim = cids[len(cids) // 2]
        s._detach_clause(victim)
        assert s.cla_flags[victim] & 2
        assert list(s.watch_head) == head_before
        assert list(s.watch_next) == next_before

    def test_detach_cost_independent_of_list_length(self):
        """The flag write is constant work — assert it performs no
        traversal by counting array reads via a tracing proxy."""
        s, _, _, cids = self._chain_solver(400)

        reads = 0

        class CountingArray:
            def __init__(self, arr):
                self._arr = arr

            def __getitem__(self, i):
                nonlocal reads
                reads += 1
                return self._arr[i]

            def __setitem__(self, i, v):
                self._arr[i] = v

        s.watch_head = CountingArray(s.watch_head)
        s.watch_next = CountingArray(s.watch_next)
        s._detach_clause(cids[-1])
        assert reads == 0  # no watch-list traversal at detach time

    def test_propagation_skips_and_reclaims_dead_clauses(self):
        s, a, b, cids = self._chain_solver(50)
        for cid in cids:
            s._detach_clause(cid)
        s._problem_cids = [c for c in s._problem_cids if c not in set(cids)]
        # Falsify both shared watches: the dead clauses must neither
        # propagate nor conflict, and their nodes get unlinked.
        assert s.add_clause([neg(mklit(a))])
        assert s.add_clause([neg(mklit(b))])
        assert s.solve() is True
        assert s.watch_head[mklit(a)] == -1 or True  # no crash is the point
        assert s.check_model()

    def test_reduce_db_then_solve_stays_correct(self):
        """Deletion + arena compaction under a tiny learnt budget."""
        s = Solver(backend="pure")
        x = [[s.new_var() for _ in range(4)] for _ in range(5)]
        s.max_learnts = 4.0
        for p in range(5):
            s.add_clause([mklit(x[p][h]) for h in range(4)])
        for h in range(4):
            for p1 in range(5):
                for p2 in range(p1 + 1, 5):
                    s.add_clause([neg(mklit(x[p1][h])), neg(mklit(x[p2][h]))])
        assert s.solve() is False
        assert s.stats.deleted_clauses > 0


class TestArenaViews:
    """The compat views must mirror the packed storage."""

    def test_clause_views(self):
        s = Solver(backend="pure")
        a, b, c = s.new_vars(3)
        with s.tagged("alloc"):
            s.add_clause([mklit(a), mklit(b), mklit(c)])
        view = s.clauses[0]
        assert view.lits == [mklit(a), mklit(b), mklit(c)]
        assert view.learnt is False
        assert view.tag == "alloc"
        assert len(view) == 3
        assert s.num_clauses() == 1
        assert s.num_literals() == 3

    def test_pb_views(self):
        s = Solver(backend="pure")
        a, b = s.new_vars(2)
        with s.tagged("cap"):
            s.add_pb([mklit(a), mklit(b)], [2, 1], 2)
        pb = s.pbs[0]
        assert pb.lits == [mklit(a), mklit(b)]
        assert pb.coefs == [2, 1]
        assert pb.bound == 2
        assert pb.tag == "cap"
        assert s.tag_counts() == {"cap": 1}
