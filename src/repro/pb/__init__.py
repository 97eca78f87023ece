"""Pseudo-Boolean (PB) modeling layer.

The paper encodes the bit-blasted allocation problem as *Pseudo-Boolean
formulae* -- conjunctions of linear constraints over Boolean literals,
"similar to the constraint part of a 0-1 linear program" [15] -- and
solves them with the PB solver GOBLIN [8].  This package provides:

- :class:`repro.pb.constraint.PBConstraint` and
  :func:`repro.pb.constraint.normalize` -- normalization of arbitrary
  linear PB (in)equalities (>=, <=, =, <, >, mixed-sign coefficients,
  repeated and complementary literals) into the canonical
  ``sum c_i * l_i >= b`` form with positive coefficients the engine
  expects,
- :mod:`repro.pb.opb` -- reader/writer for the OPB exchange format.

As in section 5.1 ("we take advantage of Pseudo-Boolean formulae rather
than use an encoding by conjunctive normal form"), constraints stay
pseudo-Boolean all the way into the engine; there is no PB-to-CNF
compilation.  The engine-level propagation for PB constraints lives inside
:mod:`repro.sat.solver` (counter-based watching); reasons for learnt
clauses are obtained by *weakening* a PB constraint to the clausal
implicate over its currently-false literals, which is sound because
removing satisfied/unassigned terms only strengthens the implication.
"""

from repro.pb.constraint import PBConstraint, Relation, add_constraint, normalize

__all__ = [
    "PBConstraint",
    "Relation",
    "normalize",
    "add_constraint",
]
