"""Tests for PB normalization, native PB propagation and OPB I/O,
including property tests checking both against brute force."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pb.constraint import (
    UNSAT,
    PBConstraint,
    Relation,
    add_constraint,
    normalize,
)
from repro.pb.opb import OpbProblem, parse_opb, write_opb
from repro.sat import Solver, mklit, neg
from repro.sat.reference import brute_force_sat


def _mk(var, negated=False):
    return mklit(var, negated)


class TestNormalize:
    def test_ge_passthrough(self):
        cons = normalize([(2, _mk(0)), (3, _mk(1))], Relation.GE, 3)
        assert len(cons) == 1
        c = cons[0]
        assert c.bound == 3
        assert sorted(c.coefs) == [2, 3]

    def test_negative_coef_folds_to_negated_literal(self):
        # -2*x0 >= -1  <=>  2*(~x0) >= 1
        cons = normalize([(-2, _mk(0))], Relation.GE, -1)
        assert len(cons) == 1
        c = cons[0]
        assert c.lits == [neg(_mk(0))]
        assert c.bound == 1

    def test_le_is_flipped(self):
        # 2*x0 + x1 <= 1
        cons = normalize([(2, _mk(0)), (1, _mk(1))], Relation.LE, 1)
        assert len(cons) == 1
        model_x0_true = [True, False]
        assert not cons[0].evaluate(model_x0_true)
        assert cons[0].evaluate([False, True])
        assert cons[0].evaluate([False, False])

    def test_eq_produces_two_sides(self):
        cons = normalize([(1, _mk(0)), (1, _mk(1))], Relation.EQ, 1)
        assert len(cons) == 2
        assert all(not c.trivial for c in cons)

    def test_strict_relations(self):
        gt = normalize([(1, _mk(0)), (1, _mk(1))], Relation.GT, 1)
        assert gt[0].bound == 2
        lt = normalize([(1, _mk(0)), (1, _mk(1))], Relation.LT, 1)
        # < 1 means both false.
        assert lt[0].evaluate([False, False])
        assert not lt[0].evaluate([True, False])

    def test_repeated_literal_merged(self):
        cons = normalize([(1, _mk(0)), (2, _mk(0))], Relation.GE, 3)
        assert len(cons) == 1
        assert cons[0].coefs == [3]

    def test_complementary_pair_folds(self):
        # x0 + ~x0 >= 1 is a tautology.
        cons = normalize([(1, _mk(0)), (1, _mk(0, True))], Relation.GE, 1)
        assert cons == []

    def test_unsat_detection(self):
        assert normalize([(1, _mk(0))], Relation.GE, 5) is UNSAT

    def test_trivial_detection(self):
        assert normalize([(1, _mk(0))], Relation.GE, 0) == []

    def test_saturation(self):
        cons = normalize([(10, _mk(0)), (1, _mk(1))], Relation.GE, 2)
        assert max(cons[0].coefs) == 2  # 10 saturated to the bound

    def test_zero_coef_dropped(self):
        cons = normalize([(0, _mk(0)), (1, _mk(1))], Relation.GE, 1)
        assert len(cons[0].lits) == 1

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(0, 5), st.booleans()),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(list(Relation)),
        st.integers(-10, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalization_preserves_semantics(self, raw, rel, rhs):
        terms = [(c, _mk(v, n)) for (c, v, n) in raw]
        nvars = max(v for (_, v, _) in raw) + 1
        cons = normalize(terms, rel, rhs)

        def raw_holds(model):
            total = sum(
                c
                for (c, l) in terms
                if (model[l >> 1] if not l & 1 else not model[l >> 1])
            )
            if rel is Relation.GE:
                return total >= rhs
            if rel is Relation.LE:
                return total <= rhs
            if rel is Relation.EQ:
                return total == rhs
            if rel is Relation.GT:
                return total > rhs
            return total < rhs

        from itertools import product

        for model in product((False, True), repeat=nvars):
            expect = raw_holds(model)
            if cons is UNSAT:
                got = False
            else:
                got = all(c.evaluate(list(model)) for c in cons)
            assert got == expect, (model, cons)


class TestAddConstraint:
    def test_clause_shortcut(self):
        s = Solver()
        a, b = s.new_vars(2)
        add_constraint(s, [(1, _mk(a)), (1, _mk(b))], Relation.GE, 1)
        assert s.num_clauses() == 1  # became a plain clause
        assert s.solve()

    def test_equality_pins_count(self):
        s = Solver()
        vs = s.new_vars(4)
        add_constraint(s, [(1, _mk(v)) for v in vs], Relation.EQ, 2)
        assert s.solve()
        assert sum(s.model()[v] for v in vs) == 2

    def test_unsat_marks_solver(self):
        s = Solver()
        a = s.new_var()
        ok = add_constraint(s, [(1, _mk(a))], Relation.GE, 2)
        assert not ok
        assert not s.solve()


class TestNativeCardinality:
    """Cardinality constraints stay pseudo-Boolean: :func:`add_constraint`
    hands them to the native propagator, which must admit exactly the
    assignments that satisfy them."""

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 3), (6, 2), (3, 0)])
    def test_at_most_k_exact(self, n, k):
        from itertools import product

        for forced in product((False, True), repeat=n):
            s = Solver()
            vs = s.new_vars(n)
            add_constraint(s, [(1, _mk(v)) for v in vs], Relation.LE, k)
            for v, val in zip(vs, forced):
                s.add_clause([_mk(v, not val)])
            assert s.solve() == (sum(forced) <= k), (forced, k)

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 3), (5, 2)])
    def test_at_least_k_exact(self, n, k):
        from itertools import product

        for forced in product((False, True), repeat=n):
            s = Solver()
            vs = s.new_vars(n)
            add_constraint(s, [(1, _mk(v)) for v in vs], Relation.GE, k)
            for v, val in zip(vs, forced):
                s.add_clause([_mk(v, not val)])
            assert s.solve() == (sum(forced) >= k), (forced, k)

    def test_k_ge_n_vacuous(self):
        s = Solver()
        vs = s.new_vars(3)
        assert add_constraint(s, [(1, _mk(v)) for v in vs], Relation.LE, 5)
        assert s.nvars == 3  # no auxiliary variables added
        assert s.num_clauses() == 0 and s.num_pbs() == 0

    def test_negative_k_unsat(self):
        s = Solver()
        vs = s.new_vars(2)
        assert not add_constraint(
            s, [(1, _mk(v)) for v in vs], Relation.LE, -1
        )
        assert not s.solve()

    def test_exactly_one_admits_each_singleton(self):
        for chosen in range(5):
            s = Solver()
            vs = s.new_vars(5)
            add_constraint(s, [(1, _mk(v)) for v in vs], Relation.EQ, 1)
            s.add_clause([_mk(vs[chosen])])
            assert s.solve()
            assert [s.model()[v] for v in vs] == [v == vs[chosen] for v in vs]

    def test_exactly_one_refutes_two(self):
        s = Solver()
        vs = s.new_vars(5)
        add_constraint(s, [(1, _mk(v)) for v in vs], Relation.EQ, 1)
        s.add_clause([_mk(vs[1])])
        s.add_clause([_mk(vs[3])])
        assert not s.solve()


class TestNativeExhaustive:
    """A single weighted constraint with mixed polarities, checked under
    every full assignment: the native propagator must accept exactly the
    assignments :meth:`PBConstraint.evaluate` accepts."""

    @pytest.mark.parametrize("seed", range(25))
    def test_native_pb_matches_evaluate(self, seed):
        from itertools import product

        rng = random.Random(seed)
        n = rng.randint(2, 7)
        coefs = [rng.randint(1, 6) for _ in range(n)]
        bound = rng.randint(1, sum(coefs))
        lits = [_mk(v, rng.random() < 0.5) for v in range(n)]
        con = PBConstraint(list(lits), list(coefs), bound)

        for forced in product((False, True), repeat=n):
            s = Solver()
            s.new_vars(n)
            ok = s.add_pb(list(lits), list(coefs), bound)
            for v, val in enumerate(forced):
                ok = s.add_clause([_mk(v, not val)]) and ok
            expect = con.evaluate(list(forced))
            assert (ok and s.solve()) == expect, (coefs, bound, forced)

    def test_native_pb_over_its_sum_is_unsat(self):
        s = Solver()
        a, b = s.new_vars(2)
        assert not s.add_pb([_mk(a), _mk(b)], [1, 1], 5)
        assert not s.solve()


class TestEncodingsAgree:
    """Native PB propagation must give the brute-force SAT answer on
    random mixed instances, whether a constraint goes straight to
    :meth:`Solver.add_pb` or through :func:`add_constraint`."""

    @pytest.mark.parametrize("seed", range(15))
    def test_three_way_agreement(self, seed):
        rng = random.Random(300 + seed)
        nvars = rng.randint(3, 8)
        clauses = []
        for _ in range(rng.randint(1, 2 * nvars)):
            vs = rng.sample(range(nvars), min(rng.randint(1, 3), nvars))
            clauses.append([_mk(v, rng.random() < 0.5) for v in vs])
        raw_pbs = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(2, nvars)
            vs = rng.sample(range(nvars), k)
            lits = [_mk(v, rng.random() < 0.5) for v in vs]
            coefs = [rng.randint(1, 4) for _ in range(k)]
            bound = rng.randint(1, sum(coefs))
            raw_pbs.append(PBConstraint(lits, coefs, bound))

        answers = []
        for via_normalize in (False, True):
            s = Solver()
            s.new_vars(nvars)
            ok = True
            for c in clauses:
                ok = s.add_clause(list(c)) and ok
            for con in raw_pbs:
                if via_normalize:
                    ok = add_constraint(
                        s, list(zip(con.coefs, con.lits)), Relation.GE,
                        con.bound,
                    ) and ok
                else:
                    ok = s.add_pb(
                        list(con.lits), list(con.coefs), con.bound
                    ) and ok
            answers.append(ok and s.solve())
        expect = (
            brute_force_sat(
                nvars,
                clauses,
                [(c.lits, c.coefs, c.bound) for c in raw_pbs],
            )
            is not None
        )
        assert answers == [expect, expect]


class TestOpb:
    def test_roundtrip(self):
        text = """\
* a comment
+1 x1 +1 x2 >= 1 ;
+2 x1 -1 x3 >= 0 ;
min: +1 x2 +1 x3 ;
"""
        prob = parse_opb(text)
        assert prob.nvars == 3
        assert prob.objective is not None
        buf = io.StringIO()
        write_opb(prob, buf)
        reparsed = parse_opb(buf.getvalue())
        assert reparsed.nvars == 3
        assert len(reparsed.constraints) == len(prob.constraints)

    def test_negated_variable_token(self):
        prob = parse_opb("+1 ~x1 >= 1 ;")
        con = prob.constraints[0]
        assert con.lits == [_mk(0, True)]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_opb("+1 y1 >= 1 ;")
        with pytest.raises(ValueError):
            parse_opb("+1 x1 1 ;")

    def test_solves_parsed_instance(self):
        prob = parse_opb("+1 x1 +1 x2 >= 2 ;")
        s = Solver()
        s.new_vars(prob.nvars)
        for con in prob.constraints:
            s.add_pb(list(con.lits), list(con.coefs), con.bound)
        assert s.solve()
        assert s.model()[0] and s.model()[1]
