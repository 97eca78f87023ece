"""Expression IR for bounded-integer formulae.

Two expression families:

- :class:`IntExpr`: integer-valued terms built from bounded variables,
  constants, ``+``, ``-``, ``*`` (Python operators overloaded).
- :class:`BoolExpr`: propositional structure over comparisons
  (``==, !=, <, <=, >, >=`` on IntExpr) and Boolean variables with
  ``And/Or/Not/Implies/Iff``.

Note on ``==``: like other solver DSLs (z3py), comparing two IntExpr
builds a constraint rather than testing object identity; hashing is by
identity so expressions can still live in dicts/sets.

Node ids
--------

Every constructor call builds a fresh node, and every node carries a
process-unique ``nid`` (assigned at construction, never reused), which
downstream layers use as a cache key -- unlike ``id()``, a ``nid`` can
never alias a recycled address, so memo tables stay sound without
pinning whole expression trees.  Structurally equal subterms built
twice are two nodes; the Tripletizer's structural tables
(:mod:`repro.arith.triplet`) define each distinct subterm once, so the
encoding does not grow with them.

Variables (:class:`IntVar`, :class:`BoolVar`) are defined by identity:
two variables with the same name are still distinct objects.
:data:`TRUE` and :data:`FALSE` are the only :class:`BoolConst` objects
(the encoder tests them by identity); they unpickle as themselves.
"""

from __future__ import annotations

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
]

_next_nid = 0


def _fresh_nid() -> int:
    global _next_nid
    _next_nid += 1
    return _next_nid


def node_count() -> int:
    """IR nodes constructed in this process so far (the last nid)."""
    return _next_nid


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

    __slots__ = ("nid",)

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
    """A bounded integer variable ``lo <= v <= hi`` (identity defines
    the variable)."""

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
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value
        self.nid = _fresh_nid()

    def __repr__(self) -> str:
        return f"IntConst({self.value})"


class _BinOp(IntExpr):
    """Shared constructor for binary arithmetic operators."""

    __slots__ = ("a", "b")

    def __init__(self, a: IntExpr, b: IntExpr):
        self.a = as_int(a)
        self.b = as_int(b)
        self.nid = _fresh_nid()


class Add(_BinOp):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"({self.a!r} + {self.b!r})"


class Sub(_BinOp):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"({self.a!r} - {self.b!r})"


class Mul(_BinOp):
    """Multiplication; either factor may be a variable (the paper's
    encoding needs variable*variable for the TDMA blocking term)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"({self.a!r} * {self.b!r})"


# ---------------------------------------------------------------------------
# Boolean layer
# ---------------------------------------------------------------------------


class BoolExpr:
    """Base class for propositional formulas."""

    __slots__ = ("nid",)

    def __and__(self, other) -> "BoolExpr":
        return And(self, other)

    def __or__(self, other) -> "BoolExpr":
        return Or(self, other)

    def __invert__(self) -> "BoolExpr":
        return Not(self)

    __hash__ = object.__hash__


class BoolVar(BoolExpr):
    """A free propositional variable (identity defines it)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.nid = _fresh_nid()

    def __repr__(self) -> str:
        return f"BoolVar({self.name})"


class BoolConst(BoolExpr):
    """Propositional constant: use the module-level TRUE / FALSE, the
    only two instances."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value
        self.nid = _fresh_nid()

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"

    def __reduce__(self) -> str:
        # Pickle and copy by module-level name: a copy is the singleton.
        return "TRUE" if self.value else "FALSE"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Cmp(BoolExpr):
    """Comparison ``a OP b`` with OP in {==, !=, <, <=, >, >=}."""

    __slots__ = ("op", "a", "b")

    OPS = ("==", "!=", "<", "<=", ">", ">=")

    def __init__(self, op: str, a: IntExpr, b: IntExpr):
        if op not in self.OPS:
            raise ValueError(f"unknown comparison {op!r}")
        self.op = op
        self.a = as_int(a)
        self.b = as_int(b)
        self.nid = _fresh_nid()

    def __repr__(self) -> str:
        return f"({self.a!r} {self.op} {self.b!r})"


class _NaryOp(BoolExpr):
    """Shared flattening constructor for And/Or."""

    __slots__ = ("parts",)

    def __init__(self, *parts: BoolExpr):
        flat: list[BoolExpr] = []
        for p in parts:
            if isinstance(p, type(self)):
                flat.extend(p.parts)
            else:
                flat.append(p)
        self.parts = tuple(flat)
        self.nid = _fresh_nid()


class And(_NaryOp):
    """N-ary conjunction."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "And(" + ", ".join(map(repr, self.parts)) + ")"


class Or(_NaryOp):
    """N-ary disjunction."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Or(" + ", ".join(map(repr, self.parts)) + ")"


class Not(BoolExpr):
    __slots__ = ("a",)

    def __init__(self, a: BoolExpr):
        self.a = a
        self.nid = _fresh_nid()

    def __repr__(self) -> str:
        return f"Not({self.a!r})"


class Implies(BoolExpr):
    __slots__ = ("a", "b")

    def __init__(self, a: BoolExpr, b: BoolExpr):
        self.a = a
        self.b = b
        self.nid = _fresh_nid()

    def __repr__(self) -> str:
        return f"({self.a!r} -> {self.b!r})"


class Iff(BoolExpr):
    __slots__ = ("a", "b")

    def __init__(self, a: BoolExpr, b: BoolExpr):
        self.a = a
        self.b = b
        self.nid = _fresh_nid()

    def __repr__(self) -> str:
        return f"({self.a!r} <-> {self.b!r})"
