"""Interval range inference for integer expressions.

Every (sub)expression of a formula has a finite range because all leaf
variables are bounded ("... which is possible due to the bounded range of
all integer variables entailed", paper section 5).  The inferred range of
each node determines its 2's-complement width during bit-blasting, and it
guarantees that no arithmetic operation can overflow its representation.
"""

from __future__ import annotations

from repro.arith.ast import Add, IntConst, IntExpr, IntVar, Mul, Sub

__all__ = ["Range", "infer_range", "width_for", "compare_ranges"]


class Range:
    """A closed integer interval ``[lo, hi]``."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __iter__(self):
        yield self.lo
        yield self.hi

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Range)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"

    def add(self, other: "Range") -> "Range":
        return Range(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Range") -> "Range":
        return Range(self.lo - other.hi, self.hi - other.lo)

    def mul(self, other: "Range") -> "Range":
        corners = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Range(min(corners), max(corners))


def infer_range(expr: IntExpr, cache: dict | None = None) -> Range:
    """Compute the range of ``expr`` bottom-up (memoized on ``nid``).

    Keys are node ids (``expr.nid``), which are never reused -- unlike
    ``id()``, a cached entry can never alias a different expression whose
    object happened to land on a recycled address.  Every occurrence of
    one shared node hits the same cache slot.
    """
    if cache is None:
        cache = {}
    nid = getattr(expr, "nid", None)
    if nid is None:
        raise TypeError(f"cannot infer range of {expr!r}")
    hit = cache.get(nid)
    if hit is not None:
        return hit
    if isinstance(expr, IntVar):
        r = Range(expr.lo, expr.hi)
    elif isinstance(expr, IntConst):
        r = Range(expr.value, expr.value)
    elif isinstance(expr, Add):
        r = infer_range(expr.a, cache).add(infer_range(expr.b, cache))
    elif isinstance(expr, Sub):
        r = infer_range(expr.a, cache).sub(infer_range(expr.b, cache))
    elif isinstance(expr, Mul):
        r = infer_range(expr.a, cache).mul(infer_range(expr.b, cache))
    else:
        raise TypeError(f"cannot infer range of {expr!r}")
    cache[nid] = r
    return r


def compare_ranges(op: str, ra: Range, rb: Range) -> bool | None:
    """Decide ``ra OP rb`` statically when the ranges permit, else None.

    Sound for every concrete pair drawn from the ranges: returns True
    (False) only when the comparison holds (fails) for *all* value pairs.
    Used by the tautology/contradiction elimination in the simplifier and
    the Tripletizer.
    """
    if op == "==":
        if ra.lo == ra.hi == rb.lo == rb.hi:
            return True
        if ra.hi < rb.lo or rb.hi < ra.lo:
            return False
    elif op == "!=":
        eq = compare_ranges("==", ra, rb)
        return None if eq is None else not eq
    elif op == "<=":
        if ra.hi <= rb.lo:
            return True
        if ra.lo > rb.hi:
            return False
    elif op == "<":
        if ra.hi < rb.lo:
            return True
        if ra.lo >= rb.hi:
            return False
    elif op == ">":
        return compare_ranges("<", rb, ra)
    elif op == ">=":
        return compare_ranges("<=", rb, ra)
    else:
        raise ValueError(f"unknown comparison {op!r}")
    return None


def width_for(r: Range) -> int:
    """Number of 2's-complement bits needed to represent every value in
    ``r`` (including the sign bit).

    Chosen as the smallest w with ``-2^(w-1) <= lo`` and
    ``hi <= 2^(w-1) - 1``; at least 1.
    """
    w = 1
    while not (-(1 << (w - 1)) <= r.lo and r.hi <= (1 << (w - 1)) - 1):
        w += 1
    return w
