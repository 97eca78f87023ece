"""Configuration of the allocation encoder."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EncoderConfig"]


@dataclass
class EncoderConfig:
    """Knobs of :class:`repro.core.encoder.ProblemEncoding`.

    The encoder always uses full simple-path closures, derives each
    token-ring slot bound from the largest frame, pins the variables of
    messages on unused media to 0, and adds transitivity constraints over
    equal-deadline task triples (the paper's eqs. 9-10 give only
    antisymmetry, and a cyclic tie-break matches no priority order).

    interference
        ``"paper"`` encodes eq. 11 exactly as printed: the preemption
        count ``I^j_i`` is pinned to ``ceil(r_i/t_j)`` for *every*
        co-located pair, including pairs where ``tau_j`` has lower
        priority (whose cost eq. 8 then zeroes anyway).  ``"tight"``
        (default) conditions eq. 11 on ``p^j_i AND (a_i = a_j)`` --
        semantically identical, fewer forced definitions.  The ablation
        benchmark compares both.
    pb_mode
        Emit full-adder axioms as pseudo-Boolean constraints (the GOBLIN
        route of section 5.1) instead of CNF.
    diagnostics
        Attach a retractable guard literal to every *obligation*
        (task deadlines, message deadlines, separations, memory
        capacities) so that :func:`repro.core.diagnose.diagnose` can
        extract an unsatisfiable core naming the requirements that
        together make a system infeasible.
    simplify
        Run the algebraic simplification pass
        (:mod:`repro.arith.simplify`: constant folding, range-based
        tautology/contradiction elimination, And/Or dedupe) on every
        formula before triplet transformation.  Equivalence-preserving;
        off only for ablations and differential tests.
    narrow_bits
        Hardwire the statically-zero high bits of non-negative integer
        variables during bit-blasting (smaller circuits, fewer clauses).
        Equivalence-preserving; off only for ablations and differential
        tests.
    """

    interference: str = "tight"
    pb_mode: bool = False
    diagnostics: bool = False
    simplify: bool = True
    narrow_bits: bool = True

    def __post_init__(self):
        if self.interference not in ("paper", "tight"):
            raise ValueError("interference must be 'paper' or 'tight'")
