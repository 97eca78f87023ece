"""CDCL SAT solving substrate.

This package provides the propositional engine underlying the whole
reproduction: a conflict-driven clause-learning (CDCL) solver in the style
of MiniSat/Chaff [11, 12] with native counter-based propagation for
pseudo-Boolean constraints (the paper's GOBLIN solver [8] is a
pseudo-Boolean DPLL engine; see DESIGN.md for the substitution note).

Public API
----------
- :class:`repro.sat.solver.Solver` -- the CDCL engine
- :class:`repro.sat.solver.SolverStats` -- search statistics
- :class:`repro.sat.proof.ProofLog` -- DRUP-style proof log (enabled via
  :meth:`Solver.start_proof`; checked by :mod:`repro.certify.drup`)
- :func:`repro.sat.literals.mklit` / :func:`neg` -- literal encoding
  helpers
- :mod:`repro.sat.dimacs` -- DIMACS CNF reader/writer
- :mod:`repro.sat.reference` -- tiny brute-force reference solver used by
  the test suite to cross-check the CDCL engine on small instances
"""

from repro.sat.literals import mklit, neg
from repro.sat.proof import ProofLog
from repro.sat.solver import Solver, SolverStats

__all__ = [
    "Solver",
    "SolverStats",
    "ProofLog",
    "mklit",
    "neg",
]
