"""IntSolver: the user-facing integer-constraint satisfiability engine.

Ties the section 5.1 pipeline together:

    formula --(triplet transform)--> definitions --(bit-blast)--> CDCL/PB

Supports *guarded* constraints and solving under assumptions, which is
what makes the paper's binary-search optimization incremental: each probe
``phi AND i >= L AND i <= M`` adds the bound constraints under a fresh
guard literal and solves with that guard assumed, so learnt clauses carry
over to later probes (the section 7 speedup) while expired bounds are
simply never assumed again.

The blaster buffers every clause it emits; each public operation here
(:meth:`IntSolver.require`, :meth:`IntSolver.literal`,
:meth:`IntSolver.boost`, and the variable lookups of ``solve`` and
``value_bool``) ends by flushing that buffer into the SAT engine, so
between operations the engine always holds the whole formula.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.arith.ast import BoolExpr, BoolVar, IntVar, intern_counters
from repro.arith.bitblast import Blaster
from repro.arith.stats import EncodeStats
from repro.arith.triplet import TOK_FALSE, TOK_TRUE, Tripletizer
from repro.sat.literals import neg
from repro.sat.solver import Solver, SolverStats

__all__ = ["IntSolver"]


class IntSolver:
    """Incremental solver for Boolean combinations of bounded-integer
    constraints.

    Example::

        s = IntSolver()
        x = s.int_var("x", 0, 20)
        y = s.int_var("y", 0, 20)
        s.require((x + y == 12) & (x * y == 35))
        assert s.solve()
        s.value(x), s.value(y)   # -> 5, 7 (or 7, 5)
    """

    def __init__(
        self,
        pb_mode: bool = False,
        simplify: bool = True,
        narrow_bits: bool = True,
    ):
        self.sat = Solver()
        self.trip = Tripletizer(simplify=simplify)
        self.blaster = Blaster(self.sat, pb_mode=pb_mode,
                               narrow_bits=narrow_bits)
        # Share the range cache between the two stages.
        self.blaster.range_cache = self.trip.range_cache
        self._vars: dict[str, IntVar] = {}
        self._guard_count = 0
        # Per-stage wall time (seconds); simplify time lives on the
        # Tripletizer, which runs the pre-pass.
        self._t_triplet = 0.0
        self._t_blast = 0.0
        # Hash-consing counters are process-global; remember the baseline
        # so encode_stats() reports this solver's own traffic.
        self._intern_base = intern_counters()

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def int_var(self, name: str, lo: int, hi: int) -> IntVar:
        """Declare a bounded integer variable."""
        if name in self._vars:
            raise ValueError(f"variable {name!r} already declared")
        v = IntVar(name, lo, hi)
        self._vars[name] = v
        return v

    def bool_var(self, name: str) -> BoolVar:
        """Declare a free Boolean variable."""
        return BoolVar(name)

    def new_guard(self) -> BoolVar:
        """Fresh guard variable for retractable constraints."""
        self._guard_count += 1
        return BoolVar(f"$guard{self._guard_count}")

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------

    def require(
        self,
        formula: BoolExpr,
        guard: BoolVar | None = None,
        label: str | None = None,
    ) -> bool:
        """Assert ``formula`` (or ``guard -> formula``).

        Returns False when the problem became unsatisfiable at the top
        level (without any guard).  ``label`` tags every clause the
        assertion generates with a provenance string (see
        :meth:`repro.sat.solver.Solver.tagged`), so unsat-core diagnosis
        can name the model constraint behind each learnt fact.
        """
        with self.sat.tagged(label), self._batch() as blaster:
            t0 = time.perf_counter()
            root = self.trip.transform(formula)
            self._t_triplet += time.perf_counter() - t0
            self._flush_new_defs()
            if guard is None:
                if root == TOK_FALSE:
                    # Empty clause rather than a bare ok=False so proof
                    # logging records the contradiction as an input.
                    blaster.emit_clause([])
                elif root != TOK_TRUE:
                    blaster.emit_clause([blaster.token_lit(root)])
            else:
                gtok = self.trip.token_for_boolvar(guard)
                glit = blaster.token_lit(gtok)
                if root == TOK_FALSE:
                    blaster.emit_clause([neg(glit)])
                elif root != TOK_TRUE:
                    blaster.emit_clause([neg(glit), blaster.token_lit(root)])
        return self.sat.ok

    @contextmanager
    def _batch(self):
        """Scope of one operation's gate requests: number new variables
        after the engine's current ones, and flush the blaster's buffer
        into the engine on the way out (also when the operation raises,
        so the engine never lags the blaster's gate caches)."""
        self.blaster.rebase()
        try:
            yield self.blaster
        finally:
            self.blaster.flush()

    def _flush_new_defs(self) -> None:
        """Bit-blast the Tripletizer's new definitions into the buffer
        (``t_blast``; PB-mode loads inside it count as ``t_load``)."""
        t0 = time.perf_counter()
        load0 = self.blaster.t_load
        bool_defs, cmp_defs, arith_defs = self.trip.drain_new_defs()
        # Arithmetic first: comparison encodings may reference the fresh
        # vectors, and vectors assert their range constraints on creation.
        for d in arith_defs:
            self.blaster.encode_arith_def(d)
        for d in cmp_defs:
            self.blaster.encode_cmp_def(d)
        for d in bool_defs:
            self.blaster.encode_bool_def(d)
        self._t_blast += (
            time.perf_counter() - t0 - (self.blaster.t_load - load0)
        )

    # ------------------------------------------------------------------
    # Solving and models
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: list[BoolExpr] | None = None,
        budget=None,
    ) -> bool:
        """Solve, optionally under assumption literals.

        Assumptions are BoolVar or Not(BoolVar) expressions.  ``budget``
        (a :class:`repro.robust.budget.Budget`) makes the underlying CDCL
        search interruptible; see :meth:`repro.sat.solver.Solver.solve`.
        """
        with self._batch():
            lits = [self._assumption_lit(a) for a in assumptions or []]
        return self.sat.solve(assumptions=lits, budget=budget)

    def _assumption_lit(self, expr: BoolExpr) -> int:
        from repro.arith.ast import Not

        negated = False
        while isinstance(expr, Not):
            negated = not negated
            expr = expr.a
        if not isinstance(expr, BoolVar):
            raise TypeError("assumptions must be (negated) Boolean variables")
        tok = self.trip.token_for_boolvar(expr)
        lit = self.blaster.token_lit(tok)
        return neg(lit) if negated else lit

    def literal(self, formula: BoolExpr) -> int:
        """SAT literal representing ``formula``'s truth value.

        Tripletizes (and bit-blasts) the formula and returns the literal
        of its root token.  Used by encoder extensions that attach
        engine-level pseudo-Boolean constraints over formula truth values
        (e.g. per-ECU memory capacities).
        """
        with self._batch() as blaster:
            t0 = time.perf_counter()
            tok = self.trip.transform(formula)
            self._t_triplet += time.perf_counter() - t0
            self._flush_new_defs()
            return blaster.token_lit(tok)

    def boost(self, var, amount: float = 1.0) -> None:
        """Seed VSIDS activity for a declared variable's SAT bits.

        Accepts an IntVar (boosts every bit of its vector, materializing
        it if needed) or a BoolVar.  Used to steer early decisions toward
        the problem's primary decision variables.
        """
        if not isinstance(var, (BoolVar, IntVar)):
            raise TypeError(f"cannot boost {var!r}")
        with self._batch() as blaster:
            if isinstance(var, BoolVar):
                tok = self.trip.token_for_boolvar(var)
                lits = [blaster.token_lit(tok)]
            else:
                lits = blaster.vector(var)
        self.sat.boost_activity([l >> 1 for l in lits], amount)

    def value(self, var: IntVar) -> int:
        """Value of an integer variable in the last model."""
        return self.blaster.decode_var(var)

    def minimize(self, var: IntVar):
        """Minimize an integer variable by the paper's BIN_SEARCH scheme
        (section 5.2) directly at the arithmetic level.

        Returns an :class:`repro.core.optimize.OptimizationOutcome`; the
        solver's model afterwards belongs to the last satisfiable probe
        (the optimum when one exists).  Convenience wrapper so the
        optimization loop is usable for *any* integer constraint problem,
        not just allocation instances; limits, budgets and checkpoints
        are options of :func:`repro.core.optimize.bin_search` itself.
        """
        from repro.core.optimize import bin_search

        return bin_search(self, var, var.lo, var.hi)

    def last_core(self) -> list[BoolExpr]:
        """Assumption core of the last UNSAT answer, mapped back to the
        (possibly negated) Boolean variables that were assumed.

        Empty when the last answer was SAT, when the problem is UNSAT
        without any assumptions, or when no core literal corresponds to a
        user-visible variable."""
        from repro.arith.ast import Not

        out: list[BoolExpr] = []
        for lit in self.sat.conflict_core:
            tok_base = self.blaster._lit_token.get(lit & ~1)
            if tok_base is None:
                continue
            bv = self.trip.boolvar_by_index.get(tok_base >> 1)
            if bv is None:
                continue
            out.append(Not(bv) if lit & 1 else bv)
        return out

    def value_bool(self, var: BoolVar) -> bool:
        """Value of a Boolean variable in the last model."""
        with self._batch() as blaster:
            lit = blaster.token_lit(self.trip.token_for_boolvar(var))
        return self.sat.model_value(lit)

    # ------------------------------------------------------------------
    # Introspection (the paper's Var./Lit. complexity columns)
    # ------------------------------------------------------------------

    @property
    def stats(self) -> SolverStats:
        return self.sat.stats

    def formula_size(self) -> dict:
        """Boolean variable / literal counts of the generated formula,
        mirroring the complexity metrics of the paper's tables 1-3."""
        return {
            "bool_vars": self.sat.nvars,
            "literals": self.sat.num_literals(),
            "clauses": self.sat.num_clauses(),
            "pb_constraints": self.sat.num_pbs(),
        }

    def encode_stats(self) -> EncodeStats:
        """Cross-layer :class:`repro.arith.stats.EncodeStats` snapshot:
        hash-consing traffic since this solver was created, simplifier
        and Tripletizer counters, blaster gate statistics, and the final
        formula sizes with per-stage wall time."""
        ic = intern_counters()
        trip = self.trip
        simp = trip.simplifier
        blaster = self.blaster
        t_simplify = trip.t_simplify
        # transform() time includes the embedded simplify pre-pass;
        # report the triplet stage net of it.
        t_triplet = max(self._t_triplet - t_simplify, 0.0)
        return EncodeStats(
            nodes_created=ic["created"] - self._intern_base["created"],
            nodes_interned=ic["interned"] - self._intern_base["interned"],
            simplify_rewrites=simp.rewrites,
            simplify_folds=simp.folds,
            triplet_defs=(
                len(trip.bool_defs) + len(trip.cmp_defs)
                + len(trip.arith_defs)
            ),
            triplet_cse_hits=trip.cse_hits,
            triplet_folds=trip.folds,
            gates=blaster.gates,
            gate_cache_hits=blaster.gate_hits,
            narrowed_bits=blaster.narrowed_bits,
            cnf_vars=self.sat.nvars,
            cnf_clauses=self.sat.num_clauses(),
            cnf_literals=self.sat.num_literals(),
            pb_constraints=self.sat.num_pbs(),
            t_simplify=t_simplify,
            t_triplet=t_triplet,
            t_blast=self._t_blast,
            t_load=blaster.t_load,
            t_total=t_simplify + t_triplet + self._t_blast + blaster.t_load,
        )
