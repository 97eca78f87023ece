"""Flat integer literal encoding.

Variables are non-negative integers ``0 .. nvars-1``.  A literal packs a
variable and a sign into a single int, MiniSat style::

    lit = var << 1 | sign        # sign 0 = positive, 1 = negated

This keeps the propagation hot loop free of object allocation: literals,
watches and trails are plain ints in plain lists (see the hpc-parallel
guide notes in DESIGN.md -- flat arrays beat object graphs by a wide
margin in CPython).

External (user-facing) encodings such as DIMACS use signed non-zero ints
(``+v`` / ``-v`` with ``v >= 1``); :func:`from_dimacs` / :func:`to_dimacs`
convert between the two.
"""

from __future__ import annotations

UNDEF_LIT = -1
#: Truth values stored per-variable in the assignment array.
VAL_UNASSIGNED = 2
VAL_TRUE = 1
VAL_FALSE = 0


def mklit(var: int, negated: bool = False) -> int:
    """Build a literal from a variable index and a sign."""
    return var << 1 | (1 if negated else 0)


def neg(lit: int) -> int:
    """Negate a literal (flip the sign bit)."""
    return lit ^ 1


def from_dimacs(dlit: int) -> int:
    """Convert a signed DIMACS literal (±v, v>=1) to the flat encoding."""
    if dlit == 0:
        raise ValueError("DIMACS literal must be non-zero")
    var = abs(dlit) - 1
    return mklit(var, dlit < 0)


def to_dimacs(lit: int) -> int:
    """Convert a flat literal to signed DIMACS form."""
    v = (lit >> 1) + 1
    return -v if lit & 1 else v
