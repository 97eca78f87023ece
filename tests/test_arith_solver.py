"""End-to-end tests of the integer layer: triplet transformation +
bit-blasting + CDCL, cross-checked against brute-force enumeration."""

import copy
import inspect
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import ast as ir
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
        s.require(FALSE)
        assert s.sat.ok is False
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


class TestDeferredLoading:
    """Clauses stay in the blaster's buffer until the engine is read
    through ``IntSolver.sat``; a labelled ``require`` loads its own."""

    @staticmethod
    def _fail_second_cmp(monkeypatch):
        from repro.arith.bitblast import Blaster

        seen = []
        blast = Blaster.encode_cmp_def

        def failing(self, d):
            seen.append(d)
            if len(seen) == 2:
                raise RuntimeError("injected blast failure")
            return blast(self, d)

        monkeypatch.setattr(Blaster, "encode_cmp_def", failing)

    def test_requires_load_when_the_engine_is_read(self):
        s = IntSolver()
        x = s.int_var("x", 0, 20)
        s.require(x >= 3)
        s.require(x <= 4)
        engine = s.blaster.solver
        assert s.blaster.pending and engine.num_clauses() == 0
        assert s.formula_size()["clauses"] == engine.num_clauses() > 0
        assert not s.blaster.pending
        assert s.solve() and 3 <= s.value(x) <= 4

    def test_flush_at_level_zero_is_one_engine_call(self, monkeypatch):
        from repro.sat.solver import Solver

        calls = []
        for name in ("new_vars", "add_clauses"):
            real = getattr(Solver, name)
            monkeypatch.setattr(
                Solver, name,
                lambda self, *a, _real=real, _name=name, **k: (
                    calls.append(_name), _real(self, *a, **k))[1])
        s = IntSolver()
        x = s.int_var("x", 0, 20)
        s.bits(x)  # variables before the first buffered record
        s.require(x + 3 == 12)
        assert s.sat.trail_lim_n == 0 and calls == ["add_clauses"]
        assert s.solve() and s.value(x) == 9

    def test_raising_require_is_loaded_by_the_next_solve(self, monkeypatch):
        s = IntSolver()
        x = s.int_var("x", 0, 20)
        y = s.int_var("y", 0, 20)
        s.require(x + y == 12)
        self._fail_second_cmp(monkeypatch)
        with pytest.raises(RuntimeError, match="injected"):
            s.require(Or(x == 1, y == 1))
        monkeypatch.undo()
        assert s.blaster.pending
        s.require(x * y == 35)
        assert s.solve()
        assert not s.blaster.pending
        assert s.sat.nvars == s.blaster._next_var
        assert sorted([s.value(x), s.value(y)]) == [5, 7]

    def test_raising_blast_keeps_its_definitions_queued(self, monkeypatch):
        """A blast that raises part-way keeps the failing definition and
        the rest of its batch queued: the Tripletizer hands their tokens
        out again, so dropping them would leave those literals free."""
        s = IntSolver()
        x = s.int_var("x", 0, 20)
        y = s.int_var("y", 0, 20)
        self._fail_second_cmp(monkeypatch)
        with pytest.raises(RuntimeError, match="injected"):
            s.require(Or(x == 1, y == 1))
        monkeypatch.undo()
        s.require(y == 1)
        s.require(y == 2)
        assert not s.solve()

    def test_raising_labelled_require_loads_under_its_tag(self,
                                                          monkeypatch):
        s = IntSolver()
        x = s.int_var("x", 0, 20)
        y = s.int_var("y", 0, 20)
        s.require(x + y == 12)
        self._fail_second_cmp(monkeypatch)
        with pytest.raises(RuntimeError, match="injected"):
            s.require(Or(x == 1, y == 1), label="broken")
        monkeypatch.undo()
        assert not s.blaster.pending
        tags = s.sat.tag_counts()
        assert tags.get("broken", 0) > 0
        untagged = s.sat.num_clauses() - sum(tags.values())
        assert untagged > 0  # x + y == 12, loaded before the tag opened
        assert s.solve() and s.value(x) + s.value(y) == 12


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


class TestTemplates:
    """``IntSolver.record``/``template``/``replay``: a recorded formula
    replays into a fresh solver with the same engine state and leaves."""

    @staticmethod
    def _build(s):
        x = s.int_var("x", 0, 20)
        y = s.int_var("y", 0, 20)
        b = s.bool_var("b")
        s.require(x + y == 12, label="sum")
        s.require(Implies(b, x * y == 35))
        s.boost(x, 2.0)
        return x, y, b

    def test_replay_restores_engine_state_and_leaves(self):
        rec = IntSolver()
        rec.record()
        x, y, b = self._build(rec)
        tpl = rec.template()
        assert rec.sat.recorder is None
        s = IntSolver()
        s.replay(tpl)
        a, r = s.sat, rec.sat
        for name in ("arena", "cla_off", "watch_head", "watch_next",
                     "order_heap", "activity", "trail"):
            assert getattr(a, name) == getattr(r, name), name
        assert (a.nvars, a.cla_tag) == (r.nvars, r.cla_tag)
        assert s.encode_stats().template_replays == 1
        # The leaves read and constrain as in the recorded solver.
        s.require(x >= 6)
        assert s.solve([b]) and (s.value(x), s.value(y)) == (7, 5)
        assert s.value_bool(b)
        s.require(x == 6)
        assert not s.solve([b])

    def test_record_and_replay_need_fresh_solvers(self):
        s = IntSolver()
        s.int_var("x", 0, 3)
        with pytest.raises(ValueError, match="fresh"):
            s.record()
        with pytest.raises(ValueError, match="record"):
            IntSolver().template()
        rec = IntSolver()
        rec.record()
        self._build(rec)
        tpl = rec.template()
        with pytest.raises(ValueError, match="fresh"):
            s.replay(tpl)



def _one_node_of_each_class() -> list:
    x, y, b = ir.IntVar("x", 0, 7), ir.IntVar("y", -2, 3), ir.BoolVar("b")
    c = ir.Cmp("<=", ir.Add(x, 2), ir.Mul(ir.Sub(x, y), 3))
    return [x, ir.IntConst(5), ir.Add(x, y), ir.Sub(x, 1), ir.Mul(x, y),
            b, c, And(b, c), Or(b, Not(c)), Not(b), Implies(b, c),
            Iff(b, c), TRUE, FALSE]


def _fields(node) -> dict:
    """Every slot of ``node``, child nodes as ``(class, nid, repr)``."""
    def plain(value):
        if isinstance(value, (ir.IntExpr, ir.BoolExpr)):
            return type(value).__name__, value.nid, repr(value)
        if isinstance(value, tuple):
            return tuple(map(plain, value))
        return value
    slots = [n for k in type(node).__mro__
             for n in getattr(k, "__slots__", ())]
    return {n: plain(getattr(node, n)) for n in slots}


class TestIrNodes:
    """The IR builds a fresh node per constructor call; the copies
    templates make of it, and the sharing of subterms built twice, are
    checked here."""

    def test_one_node_of_each_class(self):
        classes = {
            k for _, k in inspect.getmembers(ir, inspect.isclass)
            if issubclass(k, (ir.IntExpr, ir.BoolExpr))
            and not k.__name__.startswith("_")
            and k not in (ir.IntExpr, ir.BoolExpr)
        }
        assert {type(n) for n in _one_node_of_each_class()} == classes

    @pytest.mark.parametrize("dump", [
        lambda n: pickle.loads(pickle.dumps(n)),
        lambda n: pickle.loads(pickle.dumps(n, protocol=5)),
        copy.deepcopy,
    ], ids=["pickle", "pickle5", "deepcopy"])
    def test_copy_keeps_class_fields_and_repr(self, dump):
        for node in _one_node_of_each_class():
            twin = dump(node)
            assert type(twin) is type(node)
            assert _fields(twin) == _fields(node), node
            assert repr(twin) == repr(node)

    def test_constants_copy_as_the_singletons(self):
        for const in (TRUE, FALSE):
            assert pickle.loads(pickle.dumps(const)) is const
            assert copy.copy(const) is const
            assert copy.deepcopy(const) is const

    def test_constructor_builds_a_fresh_node(self):
        x = ir.IntVar("x", 0, 7)
        a, b = x + 1, x + 1
        assert a is not b and a.nid != b.nid

    def test_subterm_built_twice_is_defined_once(self):
        """Two separately built ``x + y`` nodes get one arithmetic
        definition, with the simplifier off: the Tripletizer's structural
        tables do the sharing."""
        s = IntSolver(simplify=False)
        x = s.int_var("x", 0, 10)
        y = s.int_var("y", 0, 10)
        s.require(x + y <= 9)
        s.require(x + y >= 2)
        s.require((x + y <= 9) | (x == 3))
        assert [d.op for d in s.trip.arith_defs] == ["+"]
        assert len(s.trip.cmp_defs) == 3
        assert s.trip.cse_hits >= 2
        assert s.solve() and 2 <= s.value(x) + s.value(y) <= 9
