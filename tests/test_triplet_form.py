"""Direct tests of the triplet transformation (paper eqs. 15-18):
definition shapes, constant folding, structural sharing, range-based
comparison folding."""

import pytest

from repro.arith.ast import And, Cmp, IntConst, IntVar, Not, Or, BoolVar
from repro.arith.triplet import (
    TOK_FALSE,
    TOK_TRUE,
    Tripletizer,
    tok_neg,
)


def var(name, lo, hi):
    return IntVar(name, lo, hi)


class TestTokens:
    def test_tok_neg_involution(self):
        assert tok_neg(tok_neg(4)) == 4
        assert tok_neg(TOK_TRUE) == TOK_FALSE
        assert tok_neg(TOK_FALSE) == TOK_TRUE

    def test_boolvar_token_stable(self):
        tr = Tripletizer()
        b = BoolVar("b")
        assert tr.token_for_boolvar(b) == tr.token_for_boolvar(b)


class TestTripletShapes:
    def test_comparison_produces_single_cmp_def(self):
        tr = Tripletizer()
        x = var("x", 0, 10)
        tok = tr.transform(x <= 5)
        assert tok >= 0
        assert len(tr.cmp_defs) == 1
        assert tr.cmp_defs[0].op == "<="
        assert not tr.bool_defs and not tr.arith_defs

    def test_arith_operator_gets_fresh_variable(self):
        tr = Tripletizer()
        x, y = var("x", 0, 10), var("y", 0, 10)
        tr.transform(x + y <= 5)
        assert len(tr.arith_defs) == 1
        d = tr.arith_defs[0]
        assert d.op == "+"
        # Fresh variable range inferred from the operand ranges.
        assert (d.out.lo, d.out.hi) == (0, 20)

    def test_nested_expression_decomposes_to_triplets(self):
        tr = Tripletizer()
        x, y, z = var("x", 0, 5), var("y", 0, 5), var("z", 0, 5)
        tr.transform(x * y + z == 7)
        ops = sorted(d.op for d in tr.arith_defs)
        assert ops == ["*", "+"]
        # Every definition references at most atoms (vars/consts):
        for d in tr.arith_defs:
            for operand in (d.a, d.b):
                assert isinstance(operand, (IntVar, IntConst))

    def test_negation_is_free(self):
        tr = Tripletizer()
        x = var("x", 0, 10)
        t1 = tr.transform(x <= 5)
        t2 = tr.transform(Not(x <= 5))
        # Same definition, opposite polarity -- no extra defs.
        assert t2 == tok_neg(t1) or len(tr.cmp_defs) == 2


class TestConstantFolding:
    def test_constant_comparison_folds(self):
        tr = Tripletizer()
        assert tr.transform(IntConst(3) <= IntConst(5)) == TOK_TRUE
        assert tr.transform(IntConst(3) > IntConst(5)) == TOK_FALSE
        assert not tr.cmp_defs

    def test_constant_arithmetic_folds(self):
        tr = Tripletizer()
        e = IntConst(3) + IntConst(4)
        assert tr.transform(e == 7) == TOK_TRUE
        assert not tr.arith_defs

    def test_range_disjoint_comparison_folds(self):
        tr = Tripletizer()
        x = var("x", 0, 5)
        y = var("y", 10, 20)
        assert tr.transform(x < y) == TOK_TRUE
        assert tr.transform(x > y) == TOK_FALSE
        assert not tr.cmp_defs

    def test_and_or_constant_absorption(self):
        tr = Tripletizer()
        x = var("x", 0, 5)
        live = x <= 3
        assert tr.transform(And(live, IntConst(1) == 1)) == tr.transform(
            live
        )
        assert tr.transform(Or(live, IntConst(1) == 1)) == TOK_TRUE
        assert tr.transform(And(live, IntConst(1) == 2)) == TOK_FALSE


class TestStructuralSharing:
    def test_identical_comparisons_share(self):
        tr = Tripletizer()
        x = var("x", 0, 10)
        t1 = tr.transform(x <= 5)
        t2 = tr.transform(Cmp("<=", x, IntConst(5)))  # fresh object
        assert t1 == t2
        assert len(tr.cmp_defs) == 1

    def test_identical_sums_share(self):
        tr = Tripletizer()
        x, y = var("x", 0, 10), var("y", 0, 10)
        tr.transform(x + y <= 5)
        tr.transform(x + y >= 2)  # same sum, different comparison
        assert len(tr.arith_defs) == 1
        assert len(tr.cmp_defs) == 2

    def test_and_args_canonicalized(self):
        tr = Tripletizer()
        x, y = var("x", 0, 10), var("y", 0, 10)
        a, b = x <= 3, y <= 4
        t1 = tr.transform(And(a, b))
        t2 = tr.transform(And(b, a))
        assert t1 == t2
        assert len(tr.bool_defs) == 1

    def test_queues_hold_only_new_definitions(self):
        tr = Tripletizer()
        x = var("x", 0, 10)
        tr.transform(x <= 5)
        assert len(tr.new_cmp) == 1
        tr.new_cmp.clear()  # what the blaster does once it is blasted
        tr.transform(x <= 5)  # shared; nothing new
        assert not tr.new_bool and not tr.new_cmp and not tr.new_arith
