"""Rewriting to triplet form (paper section 5.1, eqs. 15-18).

The overall formula ``phi`` is translated into ``[phi] /\\ T(phi)`` where
``[phi]`` is a fresh propositional variable representing the truth value
of ``phi`` and ``T`` introduces one definition per Boolean junctor
(eq. 15), per relational operator (eq. 16) and per arithmetic operator
(eq. 17), with variables passed through unchanged (eq. 18).  The result
is an equisatisfiable conjunction of *triplets*: definitions with at most
3 variables, at most one binary operator and exactly one relational or
Boolean operator.

Fresh arithmetic variables get their ranges inferred from the ranges of
the subexpressions, exactly as the paper notes ("for which appropriate
ranges are inferred from the ranges of the subexpressions").

Boolean tokens use the same packed-int literal trick as the SAT layer:
``token = index*2 (+1 when negated)``; constants fold eagerly so no
definition is ever emitted for TRUE/FALSE subformulas.

With the hash-consed IR (:mod:`repro.arith.ast`) all memo tables key on
node ``nid``\\ s: one definition is emitted per *distinct subterm*, not
per occurrence, and the tables stay sound without pinning trees alive
(nids are never reused, unlike ``id()``).  Unless disabled, every root
formula is first run through :class:`repro.arith.simplify.Simplifier`.
"""

from __future__ import annotations

import time

from repro.arith.ast import (
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
from repro.arith.ranges import Range, compare_ranges, infer_range
from repro.arith.simplify import Simplifier

__all__ = [
    "Tripletizer",
    "BoolDef",
    "CmpDef",
    "ArithDef",
    "TOK_TRUE",
    "TOK_FALSE",
]

#: Sentinel tokens for folded constants (never valid packed tokens, which
#: are non-negative).
TOK_TRUE = -2
TOK_FALSE = -3


def tok_neg(tok: int) -> int:
    """Negate a Boolean token (constants fold)."""
    if tok == TOK_TRUE:
        return TOK_FALSE
    if tok == TOK_FALSE:
        return TOK_TRUE
    return tok ^ 1


class BoolDef:
    """``out <-> OP(args)`` with OP in {and, or}; args are tokens."""

    __slots__ = ("out", "op", "args")

    def __init__(self, out: int, op: str, args: list[int]):
        self.out = out
        self.op = op
        self.args = args

    def __repr__(self) -> str:
        return f"BoolDef(t{self.out} <-> {self.op}{self.args})"


class CmpDef:
    """``out <-> (a OP b)`` with OP in {==, <=, <}; a, b are IntVar or
    IntConst atoms."""

    __slots__ = ("out", "op", "a", "b")

    def __init__(self, out: int, op: str, a, b):
        self.out = out
        self.op = op
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"CmpDef(t{self.out} <-> {self.a!r} {self.op} {self.b!r})"


class ArithDef:
    """``out = a OP b`` with OP in {+, -, *}; out is a fresh IntVar."""

    __slots__ = ("out", "op", "a", "b")

    def __init__(self, out: IntVar, op: str, a, b):
        self.out = out
        self.op = op
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"ArithDef({self.out!r} = {self.a!r} {self.op} {self.b!r})"


class Tripletizer:
    """Incremental triplet transformer with structural sharing.

    A single instance is reused across all `require` calls of an
    :class:`repro.arith.solver.IntSolver` so common subexpressions (the
    same ``a_i = p`` comparison appearing in dozens of formulae, say)
    are defined exactly once.  ``simplify=False`` skips the algebraic
    pre-pass (used by the equivalence tests and ablations).
    """

    def __init__(self, simplify: bool = True):
        self.ntokens = 0
        self.bool_defs: list[BoolDef] = []
        self.cmp_defs: list[CmpDef] = []
        self.arith_defs: list[ArithDef] = []
        self.range_cache: dict[int, Range] = {}
        self.simplify = simplify
        #: Persistent simplifier (caches survive across require calls and
        #: share the range cache so ranges are inferred once per node).
        self.simplifier = Simplifier(self.range_cache)
        # Memo tables, all keyed by nid (never reused, so no pinning).
        self._boolvar_tok: dict[int, int] = {}        # BoolVar nid -> token
        self._formula_tok: dict[int, int] = {}        # BoolExpr nid -> token
        self._expr_atom: dict[int, object] = {}       # IntExpr nid -> atom
        self._struct_bool: dict[tuple, int] = {}      # (op, args) -> token
        self._struct_cmp: dict[tuple, int] = {}       # (op, a, b) -> token
        self._struct_arith: dict[tuple, IntVar] = {}  # (op, a, b) -> IntVar
        self._fresh_count = 0
        #: Definitions not yet bit-blasted, in creation order; the
        #: blaster removes each one once it is blasted.
        self.new_bool: list[BoolDef] = []
        self.new_cmp: list[CmpDef] = []
        self.new_arith: list[ArithDef] = []
        #: BoolVar objects by token index (for model readback).
        self.boolvar_by_index: dict[int, BoolVar] = {}
        #: Instrumentation: requests answered by an existing definition
        #: or memoized token instead of new work, and comparisons folded
        #: to constants here (the simplifier keeps its own counters).
        self.cse_hits = 0
        self.folds = 0
        #: Wall time spent in the simplification pre-pass (seconds).
        self.t_simplify = 0.0

    # -- token allocation ------------------------------------------------

    def _new_token(self) -> int:
        tok = self.ntokens * 2
        self.ntokens += 1
        return tok

    def token_for_boolvar(self, bv: BoolVar) -> int:
        """Token of a user Boolean variable (stable across calls)."""
        tok = self._boolvar_tok.get(bv.nid)
        if tok is None:
            tok = self._new_token()
            self._boolvar_tok[bv.nid] = tok
            self.boolvar_by_index[tok >> 1] = bv
        return tok

    # -- arithmetic atoms --------------------------------------------------

    def _atom_key(self, atom) -> tuple:
        if isinstance(atom, IntConst):
            return ("c", atom.value)
        return ("v", atom.nid)

    def flatten_expr(self, expr: IntExpr):
        """Reduce an expression to an atom (IntVar or IntConst), emitting
        ArithDefs for every operator node (eq. 17)."""
        if isinstance(expr, (IntVar, IntConst)):
            return expr
        hit = self._expr_atom.get(expr.nid)
        if hit is not None:
            self.cse_hits += 1
            return hit
        if isinstance(expr, Add):
            op = "+"
        elif isinstance(expr, Sub):
            op = "-"
        elif isinstance(expr, Mul):
            op = "*"
        else:
            raise TypeError(f"unsupported expression {expr!r}")
        a = self.flatten_expr(expr.a)
        b = self.flatten_expr(expr.b)
        # Constant folding.
        if isinstance(a, IntConst) and isinstance(b, IntConst):
            value = {
                "+": a.value + b.value,
                "-": a.value - b.value,
                "*": a.value * b.value,
            }[op]
            self.folds += 1
            atom = IntConst(value)
            self._expr_atom[expr.nid] = atom
            return atom
        key = (op, self._atom_key(a), self._atom_key(b))
        out = self._struct_arith.get(key)
        if out is None:
            ra = infer_range(a, self.range_cache)
            rb = infer_range(b, self.range_cache)
            r = {"+": ra.add, "-": ra.sub, "*": ra.mul}[op](rb)
            self._fresh_count += 1
            out = IntVar(f"$t{self._fresh_count}", r.lo, r.hi)
            self.range_cache[out.nid] = r
            d = ArithDef(out, op, a, b)
            self.arith_defs.append(d)
            self.new_arith.append(d)
            self._struct_arith[key] = out
        else:
            self.cse_hits += 1
        self._expr_atom[expr.nid] = out
        return out

    # -- Boolean formulas ---------------------------------------------------

    def transform(self, formula: BoolExpr) -> int:
        """Transform a formula, returning its root token (eq. 15/16).

        The formula is first simplified (unless the pass is disabled);
        the simplifier's caches persist across calls, so re-simplifying
        a shared subterm is a dict hit.
        """
        if self.simplify:
            t0 = time.perf_counter()
            formula = self.simplifier.bool_expr(formula)
            self.t_simplify += time.perf_counter() - t0
        return self._transform(formula)

    def _transform(self, formula: BoolExpr) -> int:
        hit = self._formula_tok.get(formula.nid)
        if hit is not None:
            self.cse_hits += 1
            return hit
        tok = self._transform_uncached(formula)
        self._formula_tok[formula.nid] = tok
        return tok

    def _transform_uncached(self, formula: BoolExpr) -> int:
        if isinstance(formula, BoolConst):
            return TOK_TRUE if formula.value else TOK_FALSE
        if isinstance(formula, BoolVar):
            return self.token_for_boolvar(formula)
        if isinstance(formula, Not):
            return tok_neg(self._transform(formula.a))
        if isinstance(formula, Implies):
            a = self._transform(formula.a)
            b = self._transform(formula.b)
            return self._mk_or([tok_neg(a), b])
        if isinstance(formula, Iff):
            a = self._transform(formula.a)
            b = self._transform(formula.b)
            # a <-> b == (a -> b) & (b -> a)
            left = self._mk_or([tok_neg(a), b])
            right = self._mk_or([tok_neg(b), a])
            return self._mk_and([left, right])
        if isinstance(formula, And):
            return self._mk_and([self._transform(p) for p in formula.parts])
        if isinstance(formula, Or):
            return self._mk_or([self._transform(p) for p in formula.parts])
        if isinstance(formula, Cmp):
            return self._transform_cmp(formula)
        raise TypeError(f"unsupported formula {formula!r}")

    def _transform_cmp(self, cmp: Cmp) -> int:
        a = self.flatten_expr(cmp.a)
        b = self.flatten_expr(cmp.b)
        op = cmp.op
        negate = False
        # Canonicalize to {==, <=, <}.
        if op == "!=":
            op, negate = "==", True
        elif op == ">":
            op, a, b = "<", b, a
        elif op == ">=":
            op, a, b = "<=", b, a
        # Constant fold.
        if isinstance(a, IntConst) and isinstance(b, IntConst):
            holds = {
                "==": a.value == b.value,
                "<=": a.value <= b.value,
                "<": a.value < b.value,
            }[op]
            self.folds += 1
            tok = TOK_TRUE if holds != negate else TOK_FALSE
            return tok
        # Range-based fold: disjoint ranges decide comparisons statically.
        ra = infer_range(a, self.range_cache)
        rb = infer_range(b, self.range_cache)
        folded = compare_ranges(op, ra, rb)
        if folded is not None:
            self.folds += 1
            return (
                TOK_TRUE if folded != negate else TOK_FALSE
            )
        key = (op, self._atom_key(a), self._atom_key(b))
        tok = self._struct_cmp.get(key)
        if tok is None:
            tok = self._new_token()
            d = CmpDef(tok, op, a, b)
            self.cmp_defs.append(d)
            self.new_cmp.append(d)
            self._struct_cmp[key] = tok
        else:
            self.cse_hits += 1
        return tok_neg(tok) if negate else tok

    def _mk_and(self, toks: list[int]) -> int:
        out: list[int] = []
        seen: set[int] = set()
        for t in toks:
            if t == TOK_FALSE:
                return TOK_FALSE
            if t == TOK_TRUE:
                continue
            if t in seen:
                continue  # idempotence: t & t == t
            if tok_neg(t) in seen:
                return TOK_FALSE  # complement: t & ~t == false
            seen.add(t)
            out.append(t)
        if not out:
            return TOK_TRUE
        if len(out) == 1:
            return out[0]
        key = ("and", tuple(sorted(out)))
        tok = self._struct_bool.get(key)
        if tok is None:
            tok = self._new_token()
            d = BoolDef(tok, "and", list(key[1]))
            self.bool_defs.append(d)
            self.new_bool.append(d)
            self._struct_bool[key] = tok
        else:
            self.cse_hits += 1
        return tok

    def _mk_or(self, toks: list[int]) -> int:
        # De Morgan onto the AND path would lose sharing; keep a direct
        # OR definition instead.
        out: list[int] = []
        seen: set[int] = set()
        for t in toks:
            if t == TOK_TRUE:
                return TOK_TRUE
            if t == TOK_FALSE:
                continue
            if t in seen:
                continue  # idempotence: t | t == t
            if tok_neg(t) in seen:
                return TOK_TRUE  # complement: t | ~t == true
            seen.add(t)
            out.append(t)
        if not out:
            return TOK_FALSE
        if len(out) == 1:
            return out[0]
        key = ("or", tuple(sorted(out)))
        tok = self._struct_bool.get(key)
        if tok is None:
            tok = self._new_token()
            d = BoolDef(tok, "or", list(key[1]))
            self.bool_defs.append(d)
            self.new_bool.append(d)
            self._struct_bool[key] = tok
        else:
            self.cse_hits += 1
        return tok
