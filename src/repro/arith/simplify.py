"""Algebraic simplification over the expression IR.

Runs between the DSL and the Tripletizer: every formula handed to
:meth:`repro.arith.solver.IntSolver.require` is rewritten bottom-up
before triplet definitions are emitted.  The rules are all
equivalence-preserving (not merely equisatisfiability-preserving), so
the pass can be toggled without changing the models of a formula:

Arithmetic
    constant folding, ``x+0 -> x``, ``x-0 -> x``, ``0-x`` kept (unary
    minus), ``x*0 -> 0``, ``x*1 -> x``, ``x-x -> 0`` (same node).

Comparisons
    constant folding and range-based tautology/contradiction
    elimination via :func:`repro.arith.ranges.compare_ranges`
    (disjoint or ordered operand ranges decide a comparison
    statically), ``x OP x`` on the same node.

Boolean structure
    constant absorption for And/Or/Not/Implies/Iff, duplicate-argument
    removal and complementary-literal detection in And/Or (on the same
    node: a subterm built twice is two nodes, which the Tripletizer's
    structural tables then define once), single-argument collapse.

The pass is memoized by ``nid`` so shared subterms are simplified once;
because nids are process-unique the caches can be long-lived (they are
held by the Tripletizer for the lifetime of a solver).
"""

from __future__ import annotations

from repro.arith.ast import (
    FALSE,
    TRUE,
    Add,
    And,
    BoolConst,
    BoolExpr,
    BoolVar,
    Cmp,
    Iff,
    Implies,
    IntConst,
    IntExpr,
    IntVar,
    Mul,
    Not,
    Or,
    Sub,
)
from repro.arith.ranges import compare_ranges, infer_range

__all__ = ["Simplifier"]


class Simplifier:
    """Memoizing bottom-up rewriter; one instance per Tripletizer."""

    __slots__ = ("int_cache", "bool_cache", "range_cache", "rewrites",
                 "folds")

    def __init__(self, range_cache: dict | None = None):
        #: nid -> simplified node (per family).
        self.int_cache: dict[int, IntExpr] = {}
        self.bool_cache: dict[int, BoolExpr] = {}
        #: Shared with the Tripletizer so ranges are inferred once.
        self.range_cache: dict = range_cache if range_cache is not None else {}
        #: Structural rewrites applied (node replaced by a cheaper one).
        self.rewrites = 0
        #: Subformulas decided statically (folded to a constant).
        self.folds = 0

    # -- integer terms ---------------------------------------------------

    def int_expr(self, expr: IntExpr) -> IntExpr:
        hit = self.int_cache.get(expr.nid)
        if hit is not None:
            return hit
        out = self._int_uncached(expr)
        self.int_cache[expr.nid] = out
        if out is not expr:
            self.int_cache[out.nid] = out
        return out

    def _int_uncached(self, expr: IntExpr) -> IntExpr:
        if isinstance(expr, (IntVar, IntConst)):
            return expr
        if isinstance(expr, Add):
            a = self.int_expr(expr.a)
            b = self.int_expr(expr.b)
            if isinstance(a, IntConst) and isinstance(b, IntConst):
                self.folds += 1
                return IntConst(a.value + b.value)
            if isinstance(b, IntConst) and b.value == 0:
                self.rewrites += 1
                return a
            if isinstance(a, IntConst) and a.value == 0:
                self.rewrites += 1
                return b
            return expr if (a is expr.a and b is expr.b) else Add(a, b)
        if isinstance(expr, Sub):
            a = self.int_expr(expr.a)
            b = self.int_expr(expr.b)
            if isinstance(a, IntConst) and isinstance(b, IntConst):
                self.folds += 1
                return IntConst(a.value - b.value)
            if isinstance(b, IntConst) and b.value == 0:
                self.rewrites += 1
                return a
            if a is b:
                # Same node: x - x == 0 regardless of x's value.
                self.folds += 1
                return IntConst(0)
            return expr if (a is expr.a and b is expr.b) else Sub(a, b)
        if isinstance(expr, Mul):
            a = self.int_expr(expr.a)
            b = self.int_expr(expr.b)
            if isinstance(a, IntConst) and isinstance(b, IntConst):
                self.folds += 1
                return IntConst(a.value * b.value)
            for c, other in ((a, b), (b, a)):
                if isinstance(c, IntConst):
                    if c.value == 0:
                        self.folds += 1
                        return IntConst(0)
                    if c.value == 1:
                        self.rewrites += 1
                        return other
            return expr if (a is expr.a and b is expr.b) else Mul(a, b)
        raise TypeError(f"unsupported expression {expr!r}")

    # -- Boolean formulas -------------------------------------------------

    def bool_expr(self, formula: BoolExpr) -> BoolExpr:
        hit = self.bool_cache.get(formula.nid)
        if hit is not None:
            return hit
        out = self._bool_uncached(formula)
        self.bool_cache[formula.nid] = out
        if out is not formula:
            self.bool_cache[out.nid] = out
        return out

    def _bool_uncached(self, formula: BoolExpr) -> BoolExpr:
        if isinstance(formula, (BoolConst, BoolVar)):
            return formula
        if isinstance(formula, Not):
            a = self.bool_expr(formula.a)
            if isinstance(a, BoolConst):
                self.folds += 1
                return FALSE if a.value else TRUE
            if isinstance(a, Not):
                self.rewrites += 1
                return a.a
            return formula if a is formula.a else Not(a)
        if isinstance(formula, Implies):
            a = self.bool_expr(formula.a)
            b = self.bool_expr(formula.b)
            if isinstance(a, BoolConst):
                self.folds += 1
                return b if a.value else TRUE
            if isinstance(b, BoolConst):
                self.folds += 1
                return TRUE if b.value else self.bool_expr(Not(a))
            if a is b:
                self.folds += 1
                return TRUE
            return (
                formula if (a is formula.a and b is formula.b)
                else Implies(a, b)
            )
        if isinstance(formula, Iff):
            a = self.bool_expr(formula.a)
            b = self.bool_expr(formula.b)
            if isinstance(a, BoolConst):
                self.folds += 1
                return b if a.value else self.bool_expr(Not(b))
            if isinstance(b, BoolConst):
                self.folds += 1
                return a if b.value else self.bool_expr(Not(a))
            if a is b:
                self.folds += 1
                return TRUE
            return (
                formula if (a is formula.a and b is formula.b)
                else Iff(a, b)
            )
        if isinstance(formula, (And, Or)):
            return self._nary(formula)
        if isinstance(formula, Cmp):
            return self._cmp(formula)
        raise TypeError(f"unsupported formula {formula!r}")

    def _nary(self, formula) -> BoolExpr:
        is_and = isinstance(formula, And)
        absorb = FALSE if is_and else TRUE     # dominating constant
        neutral = TRUE if is_and else FALSE    # identity constant
        parts: list[BoolExpr] = []
        seen: set[int] = set()
        changed = False
        for raw in formula.parts:
            p = self.bool_expr(raw)
            if p is not raw:
                changed = True
            if p is absorb:
                self.folds += 1
                return absorb
            if p is neutral:
                changed = True
                continue
            if p.nid in seen:
                # Duplicate argument (same node): idempotence.
                self.rewrites += 1
                changed = True
                continue
            seen.add(p.nid)
            parts.append(p)
        # Complementary pair p and ~p (a Not over the very node p):
        # And -> FALSE, Or -> TRUE.
        for p in parts:
            if isinstance(p, Not) and p.a.nid in seen:
                self.folds += 1
                return absorb
        if not parts:
            self.folds += 1
            return neutral
        if len(parts) == 1:
            self.rewrites += 1
            return parts[0]
        if not changed:
            return formula
        self.rewrites += 1
        return And(*parts) if is_and else Or(*parts)

    def _cmp(self, formula: Cmp) -> BoolExpr:
        a = self.int_expr(formula.a)
        b = self.int_expr(formula.b)
        op = formula.op
        if isinstance(a, IntConst) and isinstance(b, IntConst):
            self.folds += 1
            holds = {
                "==": a.value == b.value,
                "!=": a.value != b.value,
                "<": a.value < b.value,
                "<=": a.value <= b.value,
                ">": a.value > b.value,
                ">=": a.value >= b.value,
            }[op]
            return TRUE if holds else FALSE
        if a is b:
            self.folds += 1
            return TRUE if op in ("==", "<=", ">=") else FALSE
        decided = compare_ranges(
            op,
            infer_range(a, self.range_cache),
            infer_range(b, self.range_cache),
        )
        if decided is not None:
            self.folds += 1
            return TRUE if decided else FALSE
        return (
            formula if (a is formula.a and b is formula.b)
            else Cmp(op, a, b)
        )
