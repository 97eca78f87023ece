"""Normalization of pseudo-Boolean constraints.

A raw constraint is ``sum coef_i * lit_i  REL  rhs`` with arbitrary
integer coefficients and any relation in {>=, <=, =, <, >}.  The engine
(:meth:`repro.sat.solver.Solver.add_pb`) accepts only the canonical form

    sum c_i * l_i >= b      with all c_i > 0 and distinct variables.

Normalization steps (standard PB preprocessing, cf. Barth [15]):

1. relation rewriting: ``<`` / ``>`` become ``<=`` / ``>=`` on shifted
   integer bounds; ``=`` splits into the pair of inequalities; ``<=``
   negates both sides into ``>=``.
2. merging of repeated literals and of complementary pairs
   (``c1*l + c2*(~l) = (c1-c2)*l + c2``).
3. sign folding: ``-c*l == c*(~l) - c``, moving the constant to the rhs.
4. trivial simplification: bound <= 0 means the constraint is a
   tautology; sum of coefficients below the bound means it is
   unsatisfiable (reported via :data:`UNSAT` sentinel).
"""

from __future__ import annotations

from enum import Enum

from repro.sat.literals import neg
from repro.sat.solver import Solver

__all__ = ["Relation", "PBConstraint", "normalize", "add_constraint", "UNSAT"]


class Relation(Enum):
    """Relational operator of a raw PB constraint."""

    GE = ">="
    LE = "<="
    EQ = "="
    GT = ">"
    LT = "<"


class PBConstraint:
    """A canonical-form PB constraint ``sum coefs[i]*lits[i] >= bound``.

    ``trivial`` constraints have an empty term list and bound <= 0.
    """

    __slots__ = ("lits", "coefs", "bound")

    def __init__(self, lits: list[int], coefs: list[int], bound: int):
        self.lits = lits
        self.coefs = coefs
        self.bound = bound

    @property
    def trivial(self) -> bool:
        """True when the constraint holds vacuously."""
        return self.bound <= 0

    @property
    def unsatisfiable(self) -> bool:
        """True when no assignment can reach the bound."""
        return sum(self.coefs) < self.bound

    def is_clause(self) -> bool:
        """True when the constraint degenerates to a plain clause."""
        return self.bound == 1 and all(c == 1 for c in self.coefs)

    def evaluate(self, model: list[bool]) -> bool:
        """Check the constraint under a full Boolean model."""
        total = 0
        for coef, lit in zip(self.coefs, self.lits):
            val = model[lit >> 1]
            if lit & 1:
                val = not val
            if val:
                total += coef
        return total >= self.bound

    def __repr__(self) -> str:
        terms = " + ".join(
            f"{c}*{'~' if l & 1 else ''}x{l >> 1}"
            for c, l in zip(self.coefs, self.lits)
        )
        return f"PBConstraint({terms or '0'} >= {self.bound})"


#: Sentinel returned by :func:`normalize` for constraints that are
#: unsatisfiable independently of any assignment.
UNSAT = object()


def _merge_terms(terms: list[tuple[int, int]]) -> tuple[dict[int, int], int]:
    """Merge repeated/complementary literals.

    Returns ``(coef_by_positive_lit, constant)`` where each variable
    appears once with the literal's *positive* polarity carrying a signed
    coefficient, plus a constant offset contributed by complementary
    folding.
    """
    by_pos: dict[int, int] = {}
    constant = 0
    for coef, lit in terms:
        pos = lit & ~1
        if lit & 1:
            # c * (~x) == c - c*x
            constant += coef
            by_pos[pos] = by_pos.get(pos, 0) - coef
        else:
            by_pos[pos] = by_pos.get(pos, 0) + coef
    return by_pos, constant


def _to_ge(terms: list[tuple[int, int]], rhs: int) -> PBConstraint | object:
    """Turn ``sum coef*lit >= rhs`` (arbitrary signs) into canonical form."""
    by_pos, constant = _merge_terms(terms)
    bound = rhs - constant
    lits: list[int] = []
    coefs: list[int] = []
    for pos, coef in sorted(by_pos.items()):
        if coef == 0:
            continue
        if coef > 0:
            lits.append(pos)
            coefs.append(coef)
        else:
            # -c*x == c*(~x) - c
            lits.append(neg(pos))
            coefs.append(-coef)
            bound += -coef
    if bound <= 0:
        return PBConstraint([], [], 0)
    # Saturation: cap coefficients at the bound.
    coefs = [min(c, bound) for c in coefs]
    con = PBConstraint(lits, coefs, bound)
    if con.unsatisfiable:
        return UNSAT
    return con


def normalize(
    terms: list[tuple[int, int]], rel: Relation, rhs: int
) -> list[PBConstraint] | object:
    """Normalize a raw constraint into canonical >=-form constraints.

    ``terms`` is a list of ``(coef, lit)`` pairs (flat literals).  Returns
    a list of :class:`PBConstraint` (empty when vacuous), or the
    :data:`UNSAT` sentinel when the constraint can never hold.
    """
    if rel is Relation.GT:
        return normalize(terms, Relation.GE, rhs + 1)
    if rel is Relation.LT:
        return normalize(terms, Relation.LE, rhs - 1)
    if rel is Relation.LE:
        flipped = [(-c, l) for (c, l) in terms]
        return normalize(flipped, Relation.GE, -rhs)
    if rel is Relation.EQ:
        lo = normalize(terms, Relation.GE, rhs)
        hi = normalize(terms, Relation.LE, rhs)
        if lo is UNSAT or hi is UNSAT:
            return UNSAT
        return [*lo, *hi]
    assert rel is Relation.GE
    con = _to_ge(list(terms), rhs)
    if con is UNSAT:
        return UNSAT
    assert isinstance(con, PBConstraint)
    return [] if con.trivial else [con]


def add_constraint(
    solver: Solver,
    terms: list[tuple[int, int]],
    rel: Relation,
    rhs: int,
) -> bool:
    """Normalize and add a raw PB constraint to the engine's native PB
    propagator.  Returns False when the solver became unsatisfiable.
    """
    cons = normalize(terms, rel, rhs)
    if cons is UNSAT:
        # Empty clause rather than a bare ok=False so proof logging
        # records the contradiction as an input.
        return solver.add_clause([])
    ok = True
    for con in cons:
        if con.is_clause():
            ok = solver.add_clause(list(con.lits)) and ok
        else:
            ok = solver.add_pb(list(con.lits), list(con.coefs), con.bound) and ok
    return ok
