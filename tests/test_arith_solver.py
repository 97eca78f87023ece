"""End-to-end tests of the integer layer: triplet transformation +
bit-blasting + CDCL, cross-checked against brute-force enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import FALSE, TRUE, And, IntSolver, Not, Or
from repro.arith.ast import Iff, Implies


class TestBasicArithmetic:
    def test_single_equality(self):
        s = IntSolver()
        x = s.int_var("x", 0, 100)
        s.require(x == 42)
        assert s.solve()
        assert s.value(x) == 42

    def test_addition(self):
        s = IntSolver()
        x = s.int_var("x", 0, 50)
        y = s.int_var("y", 0, 50)
        s.require(x + y == 30)
        s.require(x == 2 * y)
        assert s.solve()
        assert s.value(x) == 20 and s.value(y) == 10

    def test_subtraction_negative_result(self):
        s = IntSolver()
        x = s.int_var("x", 0, 10)
        y = s.int_var("y", 0, 10)
        s.require(x - y == -7)
        assert s.solve()
        assert s.value(x) - s.value(y) == -7

    def test_multiplication_var_var(self):
        s = IntSolver()
        x = s.int_var("x", 0, 20)
        y = s.int_var("y", 0, 20)
        s.require(x * y == 35)
        s.require(x < y)
        assert s.solve()
        assert s.value(x) == 5 and s.value(y) == 7

    def test_multiplication_by_constant(self):
        s = IntSolver()
        x = s.int_var("x", 0, 1000)
        s.require(x * 13 == 91)
        assert s.solve()
        assert s.value(x) == 7

    def test_nonlinear_unsat(self):
        s = IntSolver()
        x = s.int_var("x", 2, 10)
        y = s.int_var("y", 2, 10)
        s.require(x * y == 97)  # prime above range products with x,y >= 2
        assert not s.solve()

    def test_negative_ranges(self):
        s = IntSolver()
        x = s.int_var("x", -10, 10)
        y = s.int_var("y", -10, 10)
        s.require(x * y == -21)
        s.require(x > y)
        assert s.solve()
        assert s.value(x) * s.value(y) == -21
        assert s.value(x) > s.value(y)

    def test_range_bounds_enforced(self):
        s = IntSolver()
        x = s.int_var("x", 3, 6)
        assert s.solve()
        assert 3 <= s.value(x) <= 6

    def test_range_bounds_unsat_outside(self):
        s = IntSolver()
        x = s.int_var("x", 3, 6)
        s.require(x == 7)
        assert not s.solve()

    def test_chained_inequalities(self):
        s = IntSolver()
        x = s.int_var("x", 0, 100)
        s.require(x >= 10)
        s.require(x <= 10)
        assert s.solve()
        assert s.value(x) == 10

    def test_strict_inequalities(self):
        s = IntSolver()
        x = s.int_var("x", 0, 100)
        s.require(x > 41)
        s.require(x < 43)
        assert s.solve()
        assert s.value(x) == 42

    def test_not_equal(self):
        s = IntSolver()
        x = s.int_var("x", 0, 1)
        s.require(x != 0)
        assert s.solve()
        assert s.value(x) == 1


class TestBooleanStructure:
    def test_disjunction(self):
        s = IntSolver()
        x = s.int_var("x", 0, 10)
        s.require(Or(x == 3, x == 8))
        s.require(x != 3)
        assert s.solve()
        assert s.value(x) == 8

    def test_implication(self):
        s = IntSolver()
        x = s.int_var("x", 0, 10)
        b = s.bool_var("b")
        s.require(Implies(b, x == 5))
        s.require(b)
        assert s.solve()
        assert s.value(x) == 5 and s.value_bool(b)

    def test_iff(self):
        s = IntSolver()
        x = s.int_var("x", 0, 10)
        b = s.bool_var("b")
        s.require(Iff(b, x >= 5))
        s.require(Not(b))
        assert s.solve()
        assert s.value(x) < 5

    def test_nary_and_or(self):
        s = IntSolver()
        xs = [s.int_var(f"x{i}", 0, 3) for i in range(4)]
        s.require(And(*[x >= 1 for x in xs]))
        s.require(Or(*[x == 3 for x in xs]))
        assert s.solve()
        vals = [s.value(x) for x in xs]
        assert all(v >= 1 for v in vals) and 3 in vals

    def test_constants(self):
        s = IntSolver()
        x = s.int_var("x", 0, 3)
        s.require(Or(FALSE, x == 2))
        s.require(TRUE)
        assert s.solve()
        assert s.value(x) == 2

    def test_require_false_unsat(self):
        s = IntSolver()
        assert not s.require(FALSE)
        assert not s.solve()

    def test_contradictory_formula(self):
        s = IntSolver()
        x = s.int_var("x", 0, 10)
        s.require(And(x == 2, x == 3))
        assert not s.solve()

    def test_xor_like_structure(self):
        s = IntSolver()
        x = s.int_var("x", 0, 1)
        y = s.int_var("y", 0, 1)
        s.require(Or(And(x == 1, y == 0), And(x == 0, y == 1)))
        assert s.solve()
        assert s.value(x) + s.value(y) == 1


class TestGuardsAndAssumptions:
    def test_guarded_bound_retraction(self):
        s = IntSolver()
        x = s.int_var("x", 0, 100)
        s.require(x >= 10)
        g1 = s.new_guard()
        s.require(x <= 5, guard=g1)     # contradictory under g1
        assert not s.solve(assumptions=[g1])
        assert s.solve()                 # without the guard it's fine
        g2 = s.new_guard()
        s.require(x <= 20, guard=g2)
        assert s.solve(assumptions=[g2])
        assert 10 <= s.value(x) <= 20

    def test_negated_assumption(self):
        s = IntSolver()
        b = s.bool_var("b")
        x = s.int_var("x", 0, 4)
        s.require(Iff(b, x == 0))
        assert s.solve(assumptions=[Not(b)])
        assert s.value(x) != 0

    def test_assumption_must_be_variable(self):
        s = IntSolver()
        x = s.int_var("x", 0, 4)
        with pytest.raises(TypeError):
            s.solve(assumptions=[x == 2])  # type: ignore[list-item]

    def test_incremental_requires_between_solves(self):
        s = IntSolver()
        x = s.int_var("x", 0, 100)
        s.require(x >= 3)
        assert s.solve()
        s.require(x <= 4)
        assert s.solve()
        assert 3 <= s.value(x) <= 4
        s.require(x != 3)
        s.require(x != 4)
        assert not s.solve()


class TestAgainstBruteForce:
    """Random formulas over tiny ranges, checked against enumeration."""

    def _eval_expr(self, expr, env):
        from repro.arith.ast import Add, IntConst, IntVar, Mul, Sub

        if isinstance(expr, IntVar):
            return env[expr.name]
        if isinstance(expr, IntConst):
            return expr.value
        if isinstance(expr, Add):
            return self._eval_expr(expr.a, env) + self._eval_expr(expr.b, env)
        if isinstance(expr, Sub):
            return self._eval_expr(expr.a, env) - self._eval_expr(expr.b, env)
        if isinstance(expr, Mul):
            return self._eval_expr(expr.a, env) * self._eval_expr(expr.b, env)
        raise TypeError(expr)

    def _eval_formula(self, f, env):
        from repro.arith.ast import (
            And,
            BoolConst,
            Cmp,
            Iff,
            Implies,
            Not,
            Or,
        )

        if isinstance(f, BoolConst):
            return f.value
        if isinstance(f, Not):
            return not self._eval_formula(f.a, env)
        if isinstance(f, And):
            return all(self._eval_formula(p, env) for p in f.parts)
        if isinstance(f, Or):
            return any(self._eval_formula(p, env) for p in f.parts)
        if isinstance(f, Implies):
            return (not self._eval_formula(f.a, env)) or self._eval_formula(
                f.b, env
            )
        if isinstance(f, Iff):
            return self._eval_formula(f.a, env) == self._eval_formula(
                f.b, env
            )
        if isinstance(f, Cmp):
            a = self._eval_expr(f.a, env)
            b = self._eval_expr(f.b, env)
            return {
                "==": a == b,
                "!=": a != b,
                "<": a < b,
                "<=": a <= b,
                ">": a > b,
                ">=": a >= b,
            }[f.op]
        raise TypeError(f)

    def _random_formula(self, rng, variables, depth):
        from repro.arith.ast import And, Not, Or

        if depth == 0:
            # Random comparison over a random small expression.
            def expr(d):
                if d == 0 or rng.random() < 0.4:
                    if rng.random() < 0.3:
                        return rng.choice(variables) * 0 + rng.randint(-3, 5)
                    return rng.choice(variables)
                op = rng.choice(["+", "-", "*"])
                a, b = expr(d - 1), expr(d - 1)
                return {"+": a + b, "-": a - b, "*": a * b}[op]

            a = expr(2)
            b = expr(1)
            op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
            from repro.arith.ast import Cmp

            return Cmp(op, a, b)
        kind = rng.choice(["and", "or", "not"])
        if kind == "not":
            return Not(self._random_formula(rng, variables, depth - 1))
        parts = [
            self._random_formula(rng, variables, depth - 1)
            for _ in range(rng.randint(2, 3))
        ]
        return And(*parts) if kind == "and" else Or(*parts)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_formula(self, seed):
        rng = random.Random(seed)
        s = IntSolver()
        bounds = []
        variables = []
        for i in range(rng.randint(1, 3)):
            lo = rng.randint(-4, 2)
            hi = lo + rng.randint(0, 5)
            variables.append(s.int_var(f"v{i}", lo, hi))
            bounds.append((lo, hi))
        f = self._random_formula(rng, variables, rng.randint(1, 2))
        s.require(f)
        got = s.solve()
        domains = [range(lo, hi + 1) for (lo, hi) in bounds]
        expect = any(
            self._eval_formula(
                f, {v.name: val for v, val in zip(variables, combo)}
            )
            for combo in itertools.product(*domains)
        )
        assert got == expect
        if got:
            env = {v.name: s.value(v) for v in variables}
            assert self._eval_formula(f, env), env
            for v, (lo, hi) in zip(variables, bounds):
                assert lo <= env[v.name] <= hi

    @given(
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.integers(-20, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_identity(self, a, b, c):
        # For any constants, x = a, y = b must satisfy x*? arithmetic
        # identities; checks the adder/multiplier circuits on signed values.
        s = IntSolver()
        x = s.int_var("x", -20, 20)
        y = s.int_var("y", -20, 20)
        z = s.int_var("z", -1000, 1000)
        s.require(x == a)
        s.require(y == b)
        s.require(z == x * y + c)
        assert s.solve()
        assert s.value(z) == a * b + c


class TestPBMode:
    """The PB-based full-adder axiomatization (paper's GOBLIN-style
    encoding) must agree with the CNF route."""

    @pytest.mark.parametrize("seed", range(8))
    def test_pb_mode_agreement(self, seed):
        rng = random.Random(700 + seed)
        target = rng.randint(0, 30)
        s1 = IntSolver(pb_mode=False)
        s2 = IntSolver(pb_mode=True)
        for s in (s1, s2):
            x = s.int_var("x", 0, 15)
            y = s.int_var("y", 0, 15)
            s.require(x + y == target)
            s.require(x >= y)
        r1, r2 = s1.solve(), s2.solve()
        assert r1 == r2

    def test_pb_mode_produces_pb_constraints(self):
        s = IntSolver(pb_mode=True)
        x = s.int_var("x", 0, 15)
        y = s.int_var("y", 0, 15)
        s.require(x + y == 12)
        assert s.formula_size()["pb_constraints"] > 0
        assert s.solve()
        assert s.value(x) + s.value(y) == 12


class TestFormulaSize:
    def test_size_metrics_present(self):
        s = IntSolver()
        x = s.int_var("x", 0, 1000)
        y = s.int_var("y", 0, 1000)
        s.require(x * y >= 100)
        sz = s.formula_size()
        assert sz["bool_vars"] > 20
        assert sz["literals"] > sz["clauses"] > 0

    def test_sharing_avoids_duplicate_definitions(self):
        s = IntSolver()
        x = s.int_var("x", 0, 100)
        y = s.int_var("y", 0, 100)
        s.require(x + y >= 10)
        size1 = s.formula_size()["bool_vars"]
        s.require(x + y >= 10)  # structurally identical constraint
        size2 = s.formula_size()["bool_vars"]
        assert size2 == size1


class TestMinimize:
    """``IntSolver.minimize(var)`` runs BIN_SEARCH over the variable's
    domain and leaves the optimum's model in the solver."""

    def test_optimum_matches_enumeration(self):
        s = IntSolver()
        x = s.int_var("x", 0, 15)
        y = s.int_var("y", 0, 15)
        z = s.int_var("z", 0, 30)
        s.require(z == x + y)
        s.require(2 * x + 3 * y >= 23)
        s.require(x - y <= 4)
        out = s.minimize(z)
        expect = min(
            a + b
            for a in range(16)
            for b in range(16)
            if 2 * a + 3 * b >= 23 and a - b <= 4
        )
        assert out.feasible and out.proven
        assert out.optimum == expect
        assert s.value(z) == expect
        assert s.value(x) + s.value(y) == expect

    def test_infeasible_is_certified(self):
        s = IntSolver()
        x = s.int_var("x", 0, 10)
        s.require(x >= 11)
        out = s.minimize(x)
        assert not out.feasible and out.proven
        assert out.optimum is None

    @pytest.mark.parametrize("field, value", [
        ("time_limit", 1.0),
        ("budget", None),
        ("checkpoint", None),
        ("on_checkpoint", None),
    ])
    def test_search_limits_belong_to_bin_search(self, field, value):
        # Limits, budgets and checkpoints are bin_search's options; the
        # convenience wrapper takes only the variable.
        s = IntSolver()
        x = s.int_var("x", 0, 10)
        with pytest.raises(TypeError, match=field):
            s.minimize(x, **{field: value})
