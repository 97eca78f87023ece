"""Hash-consed expression IR for bounded-integer formulae.

Two expression families:

- :class:`IntExpr`: integer-valued terms built from bounded variables,
  constants, ``+``, ``-``, ``*`` (Python operators overloaded).
- :class:`BoolExpr`: propositional structure over comparisons
  (``==, !=, <, <=, >, >=`` on IntExpr) and Boolean variables with
  ``And/Or/Not/Implies/Iff``.

Note on ``==``: like other solver DSLs (z3py), comparing two IntExpr
builds a constraint rather than testing object identity; hashing is by
identity so expressions can still live in dicts/sets.

Hash-consing
------------

All *derived* nodes (constants, arithmetic operators, comparisons and
Boolean connectives) are **interned**: constructing a node that is
structurally identical to a live one returns the existing object, so
syntactically equal subterms are pointer-equal.  Every node carries a
process-unique ``nid`` (assigned at construction, never reused), which
downstream layers use as a cache key -- unlike ``id()``, a ``nid`` can
never alias a recycled address, so memo tables stay sound without
pinning whole expression trees.

Variables (:class:`IntVar`, :class:`BoolVar`) are deliberately *not*
interned: two variables with the same name are still distinct objects,
preserving the seed semantics where identity defines a variable.  The
intern table holds the structural key of a node in terms of its
children's ``nid``\\ s, so interning composes: once the leaves are fixed
objects, equal trees over them collapse to one object per distinct
subterm.  The table is weak -- dropping every reference to a formula
releases its nodes.

:func:`interning` temporarily disables the intern table (used by the
encoding-equivalence tests to compare consed against un-consed runs);
:func:`intern_counters` exposes hit/miss counters for
:class:`repro.arith.stats.EncodeStats`.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager

__all__ = [
    "IntExpr",
    "IntVar",
    "IntConst",
    "Add",
    "Sub",
    "Mul",
    "BoolExpr",
    "BoolVar",
    "Cmp",
    "And",
    "Or",
    "Not",
    "Implies",
    "Iff",
    "BoolConst",
    "TRUE",
    "FALSE",
    "as_int",
    "interning",
    "intern_counters",
]

# ---------------------------------------------------------------------------
# Intern table
# ---------------------------------------------------------------------------

#: Structural key -> node.  Keys reference children by nid (stable, never
#: reused), so a surviving entry can only describe live children: the
#: value holds its children strongly, and the entry dies with the value.
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

_COUNTS = {"created": 0, "interned": 0}

_ENABLED = [True]

_next_nid = 0


def _fresh_nid() -> int:
    global _next_nid
    _next_nid += 1
    _COUNTS["created"] += 1
    return _next_nid


def _intern_get(key):
    if not _ENABLED[0]:
        return None
    node = _TABLE.get(key)
    if node is not None:
        _COUNTS["interned"] += 1
    return node


def _intern_put(key, node) -> None:
    if _ENABLED[0]:
        _TABLE[key] = node


def intern_counters() -> dict:
    """Snapshot of the hash-consing counters (process-wide):
    ``created`` nodes and ``interned`` constructor cache hits."""
    return dict(_COUNTS, live=len(_TABLE))


@contextmanager
def interning(enabled: bool):
    """Context manager toggling structural interning of new nodes.

    With interning disabled every constructor call builds a fresh node
    (the seed behaviour); existing interned nodes are unaffected.  Used
    by the equivalence tests to diff consed vs. un-consed encodings.
    """
    old = _ENABLED[0]
    _ENABLED[0] = enabled
    try:
        yield
    finally:
        _ENABLED[0] = old


def as_int(value) -> "IntExpr":
    """Coerce a Python int to :class:`IntConst`; pass IntExpr through."""
    if isinstance(value, IntExpr):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not an integer expression")
    if isinstance(value, int):
        return IntConst(value)
    raise TypeError(f"cannot use {value!r} as an integer expression")


class IntExpr:
    """Base class for integer-valued expressions."""

    __slots__ = ("nid", "__weakref__")

    def __add__(self, other) -> "IntExpr":
        return Add(self, as_int(other))

    def __radd__(self, other) -> "IntExpr":
        return Add(as_int(other), self)

    def __sub__(self, other) -> "IntExpr":
        return Sub(self, as_int(other))

    def __rsub__(self, other) -> "IntExpr":
        return Sub(as_int(other), self)

    def __mul__(self, other) -> "IntExpr":
        return Mul(self, as_int(other))

    def __rmul__(self, other) -> "IntExpr":
        return Mul(as_int(other), self)

    def __neg__(self) -> "IntExpr":
        return Sub(IntConst(0), self)

    # Comparisons build constraints.
    def __eq__(self, other) -> "Cmp":  # type: ignore[override]
        return Cmp("==", self, as_int(other))

    def __ne__(self, other) -> "Cmp":  # type: ignore[override]
        return Cmp("!=", self, as_int(other))

    def __le__(self, other) -> "Cmp":
        return Cmp("<=", self, as_int(other))

    def __lt__(self, other) -> "Cmp":
        return Cmp("<", self, as_int(other))

    def __ge__(self, other) -> "Cmp":
        return Cmp(">=", self, as_int(other))

    def __gt__(self, other) -> "Cmp":
        return Cmp(">", self, as_int(other))

    __hash__ = object.__hash__


class IntVar(IntExpr):
    """A bounded integer variable ``lo <= v <= hi`` (never interned:
    identity defines the variable)."""

    __slots__ = ("name", "lo", "hi")

    def __init__(self, name: str, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}] for {name}")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.nid = _fresh_nid()

    def __repr__(self) -> str:
        return f"IntVar({self.name}:[{self.lo},{self.hi}])"


class IntConst(IntExpr):
    """An integer literal (interned by value)."""

    __slots__ = ("value",)

    def __new__(cls, value: int):
        key = ("ic", value)
        self = _intern_get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.value = value
        self.nid = _fresh_nid()
        _intern_put(key, self)
        return self

    def __repr__(self) -> str:
        return f"IntConst({self.value})"


class _BinOp(IntExpr):
    """Shared interning constructor for binary arithmetic operators."""

    __slots__ = ("a", "b")

    _TAG = "?"

    def __new__(cls, a: IntExpr, b: IntExpr):
        a = as_int(a)
        b = as_int(b)
        key = (cls._TAG, a.nid, b.nid)
        self = _intern_get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.nid = _fresh_nid()
        _intern_put(key, self)
        return self


class Add(_BinOp):
    __slots__ = ()

    _TAG = "+"

    def __repr__(self) -> str:
        return f"({self.a!r} + {self.b!r})"


class Sub(_BinOp):
    __slots__ = ()

    _TAG = "-"

    def __repr__(self) -> str:
        return f"({self.a!r} - {self.b!r})"


class Mul(_BinOp):
    """Multiplication; either factor may be a variable (the paper's
    encoding needs variable*variable for the TDMA blocking term)."""

    __slots__ = ()

    _TAG = "*"

    def __repr__(self) -> str:
        return f"({self.a!r} * {self.b!r})"


# ---------------------------------------------------------------------------
# Boolean layer
# ---------------------------------------------------------------------------


class BoolExpr:
    """Base class for propositional formulas."""

    __slots__ = ("nid", "__weakref__")

    def __and__(self, other) -> "BoolExpr":
        return And(self, other)

    def __or__(self, other) -> "BoolExpr":
        return Or(self, other)

    def __invert__(self) -> "BoolExpr":
        return Not(self)

    __hash__ = object.__hash__


class BoolVar(BoolExpr):
    """A free propositional variable (never interned)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.nid = _fresh_nid()

    def __repr__(self) -> str:
        return f"BoolVar({self.name})"


class BoolConst(BoolExpr):
    """Propositional constant; use the module-level TRUE / FALSE."""

    __slots__ = ("value",)

    def __new__(cls, value: bool):
        key = ("bc", bool(value))
        self = _intern_get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.value = value
        self.nid = _fresh_nid()
        _intern_put(key, self)
        return self

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = BoolConst(True)
FALSE = BoolConst(False)
# Pin the two singletons: with interning active every BoolConst(True)
# resolves to TRUE even under memory pressure.
_BOOL_CONSTS = (TRUE, FALSE)


class Cmp(BoolExpr):
    """Comparison ``a OP b`` with OP in {==, !=, <, <=, >, >=}."""

    __slots__ = ("op", "a", "b")

    OPS = ("==", "!=", "<", "<=", ">", ">=")

    def __new__(cls, op: str, a: IntExpr, b: IntExpr):
        if op not in cls.OPS:
            raise ValueError(f"unknown comparison {op!r}")
        a = as_int(a)
        b = as_int(b)
        key = ("cmp", op, a.nid, b.nid)
        self = _intern_get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.op = op
        self.a = a
        self.b = b
        self.nid = _fresh_nid()
        _intern_put(key, self)
        return self

    def __repr__(self) -> str:
        return f"({self.a!r} {self.op} {self.b!r})"


class _NaryOp(BoolExpr):
    """Shared flattening + interning constructor for And/Or."""

    __slots__ = ("parts",)

    _TAG = "?"

    def __new__(cls, *parts: BoolExpr):
        flat: list[BoolExpr] = []
        for p in parts:
            if isinstance(p, cls):
                flat.extend(p.parts)
            else:
                flat.append(p)
        key = (cls._TAG,) + tuple(p.nid for p in flat)
        self = _intern_get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.parts = tuple(flat)
        self.nid = _fresh_nid()
        _intern_put(key, self)
        return self


class And(_NaryOp):
    """N-ary conjunction."""

    __slots__ = ()

    _TAG = "and"

    def __repr__(self) -> str:
        return "And(" + ", ".join(map(repr, self.parts)) + ")"


class Or(_NaryOp):
    """N-ary disjunction."""

    __slots__ = ()

    _TAG = "or"

    def __repr__(self) -> str:
        return "Or(" + ", ".join(map(repr, self.parts)) + ")"


class Not(BoolExpr):
    __slots__ = ("a",)

    def __new__(cls, a: BoolExpr):
        key = ("not", a.nid)
        self = _intern_get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.a = a
        self.nid = _fresh_nid()
        _intern_put(key, self)
        return self

    def __repr__(self) -> str:
        return f"Not({self.a!r})"


class Implies(BoolExpr):
    __slots__ = ("a", "b")

    def __new__(cls, a: BoolExpr, b: BoolExpr):
        key = ("->", a.nid, b.nid)
        self = _intern_get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.nid = _fresh_nid()
        _intern_put(key, self)
        return self

    def __repr__(self) -> str:
        return f"({self.a!r} -> {self.b!r})"


class Iff(BoolExpr):
    __slots__ = ("a", "b")

    def __new__(cls, a: BoolExpr, b: BoolExpr):
        key = ("<->", a.nid, b.nid)
        self = _intern_get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.nid = _fresh_nid()
        _intern_put(key, self)
        return self

    def __repr__(self) -> str:
        return f"({self.a!r} <-> {self.b!r})"
