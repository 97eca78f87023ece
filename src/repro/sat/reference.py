"""Brute-force reference satisfiability checker.

Used exclusively by the test suite to cross-check the CDCL engine on
randomly generated small instances (<= ~20 variables). Intentionally
written in the most obvious way possible -- its job is to be right, not
fast.
"""

from __future__ import annotations

from itertools import product

from repro.pb.constraint import PBConstraint

__all__ = ["brute_force_sat", "brute_force_count", "brute_force_min"]


def _clause_sat(clause: list[int], model: tuple[bool, ...]) -> bool:
    for lit in clause:
        val = model[lit >> 1]
        if lit & 1:
            val = not val
        if val:
            return True
    return False


def brute_force_sat(
    nvars: int,
    clauses: list[list[int]],
    pbs: list[tuple[list[int], list[int], int]] | None = None,
):
    """Return a satisfying model as a tuple of bools, or None."""
    cons = [PBConstraint(*pb) for pb in pbs or []]
    for model in product((False, True), repeat=nvars):
        if all(_clause_sat(c, model) for c in clauses) and all(
            con.evaluate(model) for con in cons
        ):
            return model
    return None


def brute_force_count(
    nvars: int,
    clauses: list[list[int]],
    pbs: list[tuple[list[int], list[int], int]] | None = None,
) -> int:
    """Count satisfying models (for solution-enumeration tests)."""
    cons = [PBConstraint(*pb) for pb in pbs or []]
    count = 0
    for model in product((False, True), repeat=nvars):
        if all(_clause_sat(c, model) for c in clauses) and all(
            con.evaluate(model) for con in cons
        ):
            count += 1
    return count


def brute_force_min(
    nvars: int,
    clauses: list[list[int]],
    cost_lits: list[int],
    cost_coefs: list[int],
):
    """Minimum of ``sum cost_coefs[i]*[cost_lits[i] true]`` over all models,
    or None if unsatisfiable. Reference for the optimization loop."""
    best = None
    for model in product((False, True), repeat=nvars):
        if not all(_clause_sat(c, model) for c in clauses):
            continue
        cost = 0
        for lit, coef in zip(cost_lits, cost_coefs):
            val = model[lit >> 1]
            if lit & 1:
                val = not val
            if val:
                cost += coef
        if best is None or cost < best:
            best = cost
    return best
