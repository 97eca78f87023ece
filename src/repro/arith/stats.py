"""Per-encoding instrumentation record.

:class:`EncodeStats` aggregates counters from every layer of the encode
pipeline -- DSL construction, simplification, triplet
transformation, bit-blasting, clause loading, and the final CNF/PB
sizes -- plus per-stage wall time.
:meth:`repro.arith.solver.IntSolver.encode_stats` assembles one; it is
surfaced on
:class:`repro.core.allocator.AllocationResult` and by the CLI ``--stats``
flag as JSON.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["EncodeStats"]


@dataclass
class EncodeStats:
    """Counters and timings for one encoding run (all sizes are totals
    at snapshot time; timings in seconds)."""

    #: IR nodes constructed while this solver was live (process-wide,
    #: so nodes other threads built meanwhile count too).
    nodes_created: int = 0
    #: Simplifier rewrites (node replaced by a cheaper equivalent).
    simplify_rewrites: int = 0
    #: Subformulas decided statically by the simplifier (constant /
    #: range tautology folds).
    simplify_folds: int = 0
    #: Triplet definitions emitted (bool + cmp + arith).
    triplet_defs: int = 0
    #: ``require``/``flatten`` requests answered by an existing
    #: definition instead of a new one (structural CSE hits).
    triplet_cse_hits: int = 0
    #: Comparisons folded to constants inside the Tripletizer.
    triplet_folds: int = 0
    #: Logic gates materialized by the bit-blaster.
    gates: int = 0
    #: Gate requests answered from the gate cache.
    gate_cache_hits: int = 0
    #: Variable bits hardwired to constants by range narrowing.
    narrowed_bits: int = 0
    #: Final formula sizes.
    cnf_vars: int = 0
    cnf_clauses: int = 0
    cnf_literals: int = 0
    pb_constraints: int = 0
    #: Per-stage wall time (seconds): ``t_blast`` is gate construction
    #: into the clause buffer, ``t_load`` the solver loading it
    #: (variable reservation, the bulk clause load with its level-0
    #: propagation, and PB-mode constraints).
    t_simplify: float = 0.0
    t_triplet: float = 0.0
    t_blast: float = 0.0
    t_load: float = 0.0
    #: Formula templates replayed into the engine instead of encoding
    #: (:meth:`repro.arith.solver.IntSolver.replay`), and their wall
    #: time; a replayed formula has no simplify/triplet/blast stages.
    template_replays: int = 0
    t_replay: float = 0.0
    t_total: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)
