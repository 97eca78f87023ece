"""Integer-arithmetic satisfiability layer (paper section 5.1).

The allocation problem is encoded as a Boolean combination of linear and
non-linear integer (in)equations over *bounded* integer variables.  This
package discharges such formulae exactly the way the paper describes:

1. :mod:`repro.arith.ast` -- the formula language: integer expressions
   (+, -, *, constants, bounded variables) and Boolean structure
   (comparisons, and/or/not/implies/iff).
2. :mod:`repro.arith.ranges` -- interval range inference, which fixes the
   2's-complement bit-width of every (sub)expression.
3. :mod:`repro.arith.triplet` -- the Tseitin-style rewriting into
   "triplets" (eqs. 15-18): every Boolean connective, comparison and
   arithmetic operator gets a fresh definition variable, yielding an
   equisatisfiable conjunction of three-address definitions.
4. :mod:`repro.arith.bitblast` -- propositional axiomatization of the
   triplets over 2's-complement bit-vectors (full adders per eq. 19,
   shift-add and array multipliers, signed comparators), emitted into the
   CDCL/PB engine.
5. :mod:`repro.arith.solver` -- the :class:`IntSolver` facade tying it
   together: declare variables, require formulas (optionally guarded for
   retractable bounds), solve, read back integer models.
"""

from repro.arith.ast import (
    FALSE,
    TRUE,
    And,
    BoolExpr,
    BoolVar,
    Iff,
    Implies,
    IntConst,
    IntExpr,
    IntVar,
    Not,
    Or,
)
from repro.arith.solver import IntSolver
from repro.arith.stats import EncodeStats

__all__ = [
    "IntSolver",
    "IntVar",
    "IntConst",
    "IntExpr",
    "BoolExpr",
    "BoolVar",
    "And",
    "Or",
    "Not",
    "Implies",
    "Iff",
    "TRUE",
    "FALSE",
    "EncodeStats",
]
