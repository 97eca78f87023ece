"""Unit tests for the CDCL engine: propagation, learning, assumptions,
restarts, and agreement with the brute-force reference on random CNF."""

import random

import pytest

from repro.sat import Solver, mklit, neg
from repro.sat.reference import brute_force_sat
from repro.sat.solver import LUBY_BASE, luby


class TestLiterals:
    def test_mklit_roundtrip(self):
        for var in (0, 1, 7, 1000):
            assert mklit(var) >> 1 == var
            assert mklit(var) & 1 == 0
            assert mklit(var, True) >> 1 == var
            assert mklit(var, True) & 1 == 1

    def test_neg_involution(self):
        lit = mklit(5, True)
        assert neg(neg(lit)) == lit
        assert neg(lit) == mklit(5, False)

    def test_dimacs_roundtrip(self):
        from repro.sat.literals import from_dimacs, to_dimacs

        for d in (1, -1, 42, -42):
            assert to_dimacs(from_dimacs(d)) == d

    def test_from_dimacs_rejects_zero(self):
        from repro.sat.literals import from_dimacs

        with pytest.raises(ValueError):
            from_dimacs(0)


class TestLuby:
    def test_prefix(self):
        expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(1, len(expect) + 1)] == expect

    def test_base_is_a_module_constant(self):
        # Restart limits are LUBY_BASE * luby(i) conflicts; the base is
        # no longer a constructor argument.
        assert LUBY_BASE == 128
        with pytest.raises(TypeError, match="luby_base"):
            Solver(luby_base=64)


class TestBasicSolving:
    def test_empty_problem_is_sat(self):
        s = Solver()
        assert s.solve()

    def test_single_unit(self):
        s = Solver()
        v = s.new_var()
        s.add_clause([mklit(v)])
        assert s.solve()
        assert s.model()[v] is True

    def test_contradictory_units(self):
        s = Solver()
        v = s.new_var()
        s.add_clause([mklit(v)])
        ok = s.add_clause([neg(mklit(v))])
        assert not ok or not s.solve()

    def test_simple_implication_chain(self):
        s = Solver()
        a, b, c = s.new_vars(3)
        s.add_clause([neg(mklit(a)), mklit(b)])  # a -> b
        s.add_clause([neg(mklit(b)), mklit(c)])  # b -> c
        s.add_clause([mklit(a)])
        assert s.solve()
        m = s.model()
        assert m[a] and m[b] and m[c]

    def test_unsat_triangle(self):
        # (a|b) & (a|!b) & (!a|b) & (!a|!b) is UNSAT
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([mklit(a), mklit(b)])
        s.add_clause([mklit(a), neg(mklit(b))])
        s.add_clause([neg(mklit(a)), mklit(b)])
        ok = s.add_clause([neg(mklit(a)), neg(mklit(b))])
        assert not ok or not s.solve()

    def test_tautology_dropped(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([mklit(a), neg(mklit(a))])
        assert s.num_clauses() == 0
        assert s.solve()

    def test_duplicate_literals_merged(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([mklit(a), mklit(a), mklit(b)])
        assert s.solve()

    def test_unknown_variable_rejected(self):
        s = Solver()
        s.new_var()
        with pytest.raises(ValueError):
            s.add_clause([mklit(7)])

    def test_model_checker(self):
        s = Solver()
        a, b, c = s.new_vars(3)
        s.add_clause([mklit(a), mklit(b)])
        s.add_clause([neg(mklit(a)), mklit(c)])
        assert s.solve()
        assert s.check_model()

    def test_pigeonhole_3_into_2_unsat(self):
        # PHP(3,2): classic small UNSAT instance requiring real search.
        s = Solver()
        x = [[s.new_var() for _ in range(2)] for _ in range(3)]
        for p in range(3):
            s.add_clause([mklit(x[p][0]), mklit(x[p][1])])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    s.add_clause([neg(mklit(x[p1][h])), neg(mklit(x[p2][h]))])
        assert not s.solve()

    def test_pigeonhole_5_into_4_unsat(self):
        s = Solver()
        n, m = 5, 4
        x = [[s.new_var() for _ in range(m)] for _ in range(n)]
        for p in range(n):
            s.add_clause([mklit(x[p][h]) for h in range(m)])
        for h in range(m):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    s.add_clause([neg(mklit(x[p1][h])), neg(mklit(x[p2][h]))])
        assert not s.solve()
        assert s.stats.conflicts > 0


class TestAssumptions:
    def test_sat_under_assumption(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([mklit(a), mklit(b)])
        assert s.solve(assumptions=[neg(mklit(a))])
        assert s.model()[b] is True

    def test_unsat_under_assumption_but_sat_without(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([mklit(a), mklit(b)])
        s.add_clause([neg(mklit(a)), mklit(b)])
        assert not s.solve(assumptions=[neg(mklit(b))])
        assert s.solve()  # solver must remain usable
        assert s.model()[b] is True

    def test_conflicting_assumptions(self):
        s = Solver()
        a = s.new_var()
        assert not s.solve(assumptions=[mklit(a), neg(mklit(a))])

    def test_assumption_already_implied(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([mklit(a)])
        assert s.solve(assumptions=[mklit(a), mklit(b)])
        assert s.model()[a] and s.model()[b]

    def test_incremental_reuse_keeps_learnts(self):
        # Learnt clauses from call 1 persist into call 2.
        s = Solver()
        n, m = 5, 4
        x = [[s.new_var() for _ in range(m)] for _ in range(n)]
        g = s.new_var()  # guard
        for p in range(n):
            s.add_clause([neg(mklit(g))] + [mklit(x[p][h]) for h in range(m)])
        for h in range(m):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    s.add_clause([neg(mklit(x[p1][h])), neg(mklit(x[p2][h]))])
        assert not s.solve(assumptions=[mklit(g)])
        learned_after_first = s.stats.learnt_clauses
        assert learned_after_first > 0
        # Second call: still UNSAT, learnt clauses are retained.
        assert not s.solve(assumptions=[mklit(g)])
        assert s.solve(assumptions=[neg(mklit(g))])


class TestPBConstraints:
    def test_at_least_k(self):
        s = Solver()
        vs = s.new_vars(4)
        lits = [mklit(v) for v in vs]
        s.add_pb(lits, [1, 1, 1, 1], 3)
        assert s.solve()
        assert sum(s.model()[v] for v in vs) >= 3

    def test_at_most_k_via_negation(self):
        # at-most-1 over 3 lits == at-least-2 over negations.
        s = Solver()
        vs = s.new_vars(3)
        s.add_pb([neg(mklit(v)) for v in vs], [1, 1, 1], 2)
        s.add_clause([mklit(vs[0]), mklit(vs[1]), mklit(vs[2])])
        assert s.solve()
        assert sum(s.model()[v] for v in vs) == 1

    def test_weighted_bound(self):
        # 3a + 2b + 1c >= 4 forces a when b,c both false etc.
        s = Solver()
        a, b, c = s.new_vars(3)
        s.add_pb([mklit(a), mklit(b), mklit(c)], [3, 2, 1], 4)
        s.add_clause([neg(mklit(b))])
        assert s.solve()
        m = s.model()
        assert m[a] and m[c]  # 3+1 = 4 is the only option without b

    def test_pb_conflict_detection(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_pb([mklit(a), mklit(b)], [1, 1], 2)  # both must hold
        ok = s.add_clause([neg(mklit(a))])
        assert not ok or not s.solve()

    def test_pb_bound_le_zero_trivial(self):
        s = Solver()
        a = s.new_var()
        assert s.add_pb([mklit(a)], [5], 0)
        assert s.solve()

    def test_pb_impossible_bound(self):
        s = Solver()
        a, b = s.new_vars(2)
        ok = s.add_pb([mklit(a), mklit(b)], [1, 1], 3)
        assert not ok or not s.solve()

    def test_pb_rejects_nonpositive_coef(self):
        s = Solver()
        a = s.new_var()
        with pytest.raises(ValueError):
            s.add_pb([mklit(a)], [0], 1)

    def test_pb_with_search_and_backtracking(self):
        # Interleave PB and clause constraints so conflicts exercise the
        # PB slack undo on backtrack.
        s = Solver()
        vs = s.new_vars(8)
        lits = [mklit(v) for v in vs]
        s.add_pb(lits, [1] * 8, 4)                      # >= 4 true
        s.add_pb([neg(l) for l in lits], [1] * 8, 4)    # >= 4 false
        for i in range(0, 8, 2):
            s.add_clause([lits[i], lits[i + 1]])
        assert s.solve()
        assert s.check_model()
        m = s.model()
        assert sum(m[v] for v in vs) == 4


class TestRandomAgainstReference:
    """Fuzz the CDCL engine against brute force on small random 3-CNF."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_3cnf(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(4, 12)
        nclauses = rng.randint(nvars, 5 * nvars)
        clauses = []
        for _ in range(nclauses):
            width = rng.randint(1, 3)
            vs = rng.sample(range(nvars), min(width, nvars))
            clauses.append([mklit(v, rng.random() < 0.5) for v in vs])
        s = Solver()
        s.new_vars(nvars)
        ok = True
        for c in clauses:
            ok = s.add_clause(list(c)) and ok
        got = ok and s.solve()
        expect = brute_force_sat(nvars, clauses) is not None
        assert got == expect
        if got:
            assert s.check_model()

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pb_mix(self, seed):
        rng = random.Random(1000 + seed)
        nvars = rng.randint(4, 10)
        clauses = []
        for _ in range(rng.randint(2, 3 * nvars)):
            vs = rng.sample(range(nvars), min(rng.randint(1, 3), nvars))
            clauses.append([mklit(v, rng.random() < 0.5) for v in vs])
        pbs = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(2, nvars)
            vs = rng.sample(range(nvars), k)
            lits = [mklit(v, rng.random() < 0.5) for v in vs]
            coefs = [rng.randint(1, 4) for _ in range(k)]
            bound = rng.randint(1, sum(coefs))
            pbs.append((lits, coefs, bound))
        s = Solver()
        s.new_vars(nvars)
        ok = True
        for c in clauses:
            ok = s.add_clause(list(c)) and ok
        for (lits, coefs, bound) in pbs:
            ok = s.add_pb(list(lits), list(coefs), bound) and ok
        got = ok and s.solve()
        expect = brute_force_sat(nvars, clauses, pbs) is not None
        assert got == expect
        if got:
            assert s.check_model()

    @pytest.mark.parametrize("seed", range(10))
    def test_random_incremental_assumptions(self, seed):
        rng = random.Random(2000 + seed)
        nvars = rng.randint(4, 10)
        clauses = []
        for _ in range(rng.randint(2, 3 * nvars)):
            vs = rng.sample(range(nvars), min(rng.randint(1, 3), nvars))
            clauses.append([mklit(v, rng.random() < 0.5) for v in vs])
        s = Solver()
        s.new_vars(nvars)
        ok = True
        for c in clauses:
            ok = s.add_clause(list(c)) and ok
        # Several assumption probes on the same solver.
        for _ in range(5):
            k = rng.randint(0, min(3, nvars))
            vs = rng.sample(range(nvars), k)
            assum = [mklit(v, rng.random() < 0.5) for v in vs]
            got = ok and s.solve(assumptions=assum)
            expect = (
                brute_force_sat(nvars, clauses + [[a] for a in assum])
                is not None
            )
            assert got == expect, f"assumptions {assum}"


class TestStats:
    def test_stats_populated(self):
        s = Solver()
        n, m = 5, 4
        x = [[s.new_var() for _ in range(m)] for _ in range(n)]
        for p in range(n):
            s.add_clause([mklit(x[p][h]) for h in range(m)])
        for h in range(m):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    s.add_clause([neg(mklit(x[p1][h])), neg(mklit(x[p2][h]))])
        s.solve()
        snap = s.stats.snapshot()
        assert snap["solve_calls"] == 1
        assert snap["propagations"] > 0
        assert s.num_literals() > 0


class TestNoImportPath:
    """Clauses enter only through the loader and the search's own
    learning: the import counters of the removed parallel engine are
    gone from both backends' stats."""

    @pytest.mark.parametrize("backend", ["pure", "fast"])
    def test_snapshot_has_no_import_counters(self, backend):
        s = Solver(backend=backend)
        a, b = s.new_vars(2)
        s.add_clause([mklit(a), mklit(b)])
        assert s.solve()
        snap = s.stats.snapshot()
        assert snap["solve_calls"] == 1
        assert "imported_clauses" not in snap
        assert "rejected_imports" not in snap


class TestLearnHook:
    def test_learn_hook_receives_learnt_clauses(self):
        # 3 pigeons, 2 holes: x[p][h] = pigeon p sits in hole h.
        s = Solver()
        x = [[s.new_var() for _ in range(2)] for _ in range(3)]
        for p in range(3):
            s.add_clause([mklit(x[p][0]), mklit(x[p][1])])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    s.add_clause([neg(mklit(x[p1][h])),
                                  neg(mklit(x[p2][h]))])
        learnt = []
        s.learn_hook = lambda lits, bt: learnt.append(tuple(lits))
        assert not s.solve()
        assert learnt  # refuting PHP(3,2) must learn something
