"""IntSolver: the user-facing integer-constraint satisfiability engine.

Ties the section 5.1 pipeline together:

    formula --(triplet transform)--> definitions --(bit-blast)--> CDCL/PB

Supports *guarded* constraints and solving under assumptions, which is
what makes the paper's binary-search optimization incremental: each probe
``phi AND i >= L AND i <= M`` adds the bound constraints under a fresh
guard literal and solves with that guard assumed, so learnt clauses carry
over to later probes (the section 7 speedup) while expired bounds are
simply never assumed again.

The blaster buffers every clause it emits, and the buffer keeps growing
across :meth:`IntSolver.require` and :meth:`IntSolver.literal` calls:
an encoding of a few hundred constraints reaches the SAT engine in one
clause load.  :attr:`IntSolver.sat` is the one door to the engine; it
loads whatever is still buffered before handing the engine out, so
every reader (``solve``, proof logging, PB side constraints, formula
sizes, diagnosis) sees the whole formula.  A labelled ``require`` loads
its own clauses inside :meth:`repro.sat.solver.Solver.tagged`, so each
clause keeps its provenance tag.

A formula can be kept as a :class:`SolverTemplate`: :meth:`IntSolver.
record` makes the engine record every call that builds it
(:class:`repro.sat.solver.EngineRecord`), :meth:`IntSolver.template`
takes the record with the leaf maps (each declared variable's
literals), and :meth:`IntSolver.replay` loads it into a fresh solver at
clause-loader speed.  Gate caches and CSE tables are not kept: what is
added after a replay is blasted afresh.
"""

from __future__ import annotations

import time
from array import array

from repro.arith.ast import BoolExpr, BoolVar, IntVar, node_count
from repro.arith.bitblast import Blaster
from repro.arith.stats import EncodeStats
from repro.arith.triplet import TOK_FALSE, TOK_TRUE, Tripletizer
from repro.sat.literals import neg
from repro.sat.solver import EngineRecord, Solver, SolverStats

__all__ = ["IntSolver", "SolverTemplate"]


class SolverTemplate:
    """A recorded :class:`IntSolver` formula (see :meth:`IntSolver.
    template`): the engine calls that built it and the leaf maps.

    Read-only once taken, so any number of solvers may replay it, also
    at the same time.  Picklable: an unpickled copy's variables keep
    their node ids, which is all the solver's tables key on, so it
    replays as the original does."""

    __slots__ = ("record", "int_leaves", "bool_leaves", "true_lit",
                 "nvars")

    def __init__(self, record: EngineRecord, int_leaves: list,
                 bool_leaves: list, true_lit: int, nvars: int):
        self.record = record
        #: ``(IntVar, array('i') of its bit literals, or None when the
        #: variable was declared but never blasted)`` per declaration.
        self.int_leaves = int_leaves
        #: ``(BoolVar, positive literal)`` per blasted Boolean leaf.
        self.bool_leaves = bool_leaves
        self.true_lit = true_lit
        #: Engine variables after the formula (the next free one).
        self.nvars = nvars


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
        self._sat = Solver()
        self.trip = Tripletizer(simplify=simplify)
        self.blaster = Blaster(self._sat, pb_mode=pb_mode,
                               narrow_bits=narrow_bits)
        # Share the range cache between the two stages.
        self.blaster.range_cache = self.trip.range_cache
        self._vars: dict[str, IntVar] = {}
        self._guard_count = 0
        # Per-stage wall time (seconds); simplify time lives on the
        # Tripletizer, which runs the pre-pass.
        self._t_triplet = 0.0
        self._t_blast = 0.0
        #: Template replays into this solver and their wall time.
        self._replays = 0
        self._t_replay = 0.0
        # The nid counter is process-global; remember the baseline so
        # encode_stats() reports the nodes built while this solver lived.
        self._nid_base = node_count()

    @property
    def sat(self) -> Solver:
        """The SAT engine, holding the whole formula: clauses the blaster
        still buffers are loaded first (under the tag active now)."""
        if self.blaster.pending:
            self.blaster.flush()
        return self._sat

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------

    def record(self) -> None:
        """Record every engine call from now on, for :meth:`template`.

        Only a solver that has added nothing yet can be recorded, so a
        replay starts from the same empty engine."""
        if self._sat.nvars or self.blaster.pending or self._vars:
            raise ValueError("record() needs a fresh solver")
        self._sat.recorder = EngineRecord()

    def template(self) -> SolverTemplate:
        """Stop recording and return the formula built so far as a
        :class:`SolverTemplate` (after :meth:`record`)."""
        sat = self.sat  # loads what is still buffered, into the record
        rec = sat.recorder
        if rec is None:
            raise ValueError("template() needs record() first")
        sat.recorder = None
        vectors = self.blaster._vectors
        int_leaves = []
        for v in self._vars.values():
            vec = vectors.get(v.nid)
            int_leaves.append((v, array("i", vec) if vec is not None
                               else None))
        token_lit = self.blaster._token_lit
        bool_leaves = [
            (bv, token_lit[index << 1])
            for index, bv in self.trip.boolvar_by_index.items()
            if index << 1 in token_lit
        ]
        return SolverTemplate(rec, int_leaves, bool_leaves,
                              self.blaster._true_lit, sat.nvars)

    def replay(self, tpl: SolverTemplate) -> None:
        """Load a template into this fresh solver: the recorded engine
        calls in order, then the leaf maps, so the declared variables
        read and constrain as in the recorded solver.  Timed as
        ``t_replay``."""
        if self._sat.nvars or self.blaster.pending or self._vars:
            raise ValueError("replay() needs a fresh solver")
        t0 = time.perf_counter()
        sat = self._sat
        tpl.record.replay(sat)
        if sat.nvars != tpl.nvars:
            raise ValueError(
                f"template replay left {sat.nvars} variables, "
                f"recorded {tpl.nvars}")
        blaster = self.blaster
        blaster._true_lit = tpl.true_lit
        blaster._next_var = blaster._head = sat.nvars
        for v, vec in tpl.int_leaves:
            self._vars[v.name] = v
            if vec is not None:
                blaster._vectors[v.nid] = vec.tolist()
                blaster._vec_vars[v.nid] = v
        for bv, lit in tpl.bool_leaves:
            tok = self.trip.token_for_boolvar(bv)
            blaster._token_lit[tok] = lit
            blaster._lit_token[lit] = tok
        self._replays += 1
        self._t_replay += time.perf_counter() - t0

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
    ) -> None:
        """Assert ``formula`` (or ``guard -> formula``).

        The clauses stay buffered until the engine is next read through
        :attr:`sat`; ``sat.ok`` then says whether the problem became
        unsatisfiable at the top level.  ``label`` tags every clause the
        assertion generates with a provenance string (see
        :meth:`repro.sat.solver.Solver.tagged`), so unsat-core diagnosis
        can name the model constraint behind each learnt fact; a
        labelled assertion is loaded on the spot, inside its tag (also
        when it raises).
        """
        if label is None:
            self._require(formula, guard)
            return
        with self.sat.tagged(label):
            try:
                self._require(formula, guard)
            finally:
                self.blaster.flush()

    def _require(self, formula: BoolExpr, guard: BoolVar | None) -> None:
        blaster = self.blaster
        blaster.rebase()
        t0 = time.perf_counter()
        root = self.trip.transform(formula)
        self._t_triplet += time.perf_counter() - t0
        self._blast_new_defs()
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

    def _blast_new_defs(self) -> None:
        """Bit-blast the Tripletizer's new definitions into the buffer
        (``t_blast``; PB-mode loads inside it count as ``t_load``).

        A definition leaves its queue only once it is blasted: when a
        blast raises, that definition and every later one stay queued
        for the next call, so a token the Tripletizer's CSE tables hand
        out again is never left without its definition."""
        t0 = time.perf_counter()
        blaster = self.blaster
        load0 = blaster.t_load
        trip = self.trip
        # Arithmetic first: comparison encodings may reference the fresh
        # vectors, and vectors assert their range constraints on creation.
        try:
            for queue, encode in (
                (trip.new_arith, blaster.encode_arith_def),
                (trip.new_cmp, blaster.encode_cmp_def),
                (trip.new_bool, blaster.encode_bool_def),
            ):
                done = 0
                try:
                    for d in queue:
                        encode(d)
                        done += 1
                finally:
                    del queue[:done]
        finally:
            self._t_blast += (
                time.perf_counter() - t0 - (blaster.t_load - load0)
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
        self.blaster.rebase()
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
        self.blaster.rebase()
        t0 = time.perf_counter()
        tok = self.trip.transform(formula)
        self._t_triplet += time.perf_counter() - t0
        self._blast_new_defs()
        return self.blaster.token_lit(tok)

    def boost(self, var, amount: float = 1.0) -> None:
        """Seed VSIDS activity for a declared variable's SAT bits.

        Accepts an IntVar (boosts every bit of its vector, materializing
        it if needed) or a BoolVar.  Used to steer early decisions toward
        the problem's primary decision variables.
        """
        if not isinstance(var, (BoolVar, IntVar)):
            raise TypeError(f"cannot boost {var!r}")
        blaster = self.blaster
        blaster.rebase()
        if isinstance(var, BoolVar):
            lits = [blaster.token_lit(self.trip.token_for_boolvar(var))]
        else:
            lits = blaster.vector(var)
        self.sat.boost_activity([l >> 1 for l in lits], amount)

    def bits(self, var: IntVar) -> list[int]:
        """SAT literals of an integer variable's bit vector, LSB first
        (created on first use, like any operand's)."""
        self.blaster.rebase()
        return self.blaster.vector(var)

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
        self.blaster.rebase()
        lit = self.blaster.token_lit(self.trip.token_for_boolvar(var))
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
        sat = self.sat
        return {
            "bool_vars": sat.nvars,
            "literals": sat.num_literals(),
            "clauses": sat.num_clauses(),
            "pb_constraints": sat.num_pbs(),
        }

    def encode_stats(self) -> EncodeStats:
        """Cross-layer :class:`repro.arith.stats.EncodeStats` snapshot:
        IR nodes built since this solver was created, simplifier
        and Tripletizer counters, blaster gate statistics, and the final
        formula sizes with per-stage wall time."""
        sat = self.sat  # loads what is still buffered, timed as t_load
        trip = self.trip
        simp = trip.simplifier
        blaster = self.blaster
        t_simplify = trip.t_simplify
        # transform() time includes the embedded simplify pre-pass;
        # report the triplet stage net of it.
        t_triplet = max(self._t_triplet - t_simplify, 0.0)
        return EncodeStats(
            nodes_created=node_count() - self._nid_base,
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
            cnf_vars=sat.nvars,
            cnf_clauses=sat.num_clauses(),
            cnf_literals=sat.num_literals(),
            pb_constraints=sat.num_pbs(),
            t_simplify=t_simplify,
            t_triplet=t_triplet,
            t_blast=self._t_blast,
            t_load=blaster.t_load,
            template_replays=self._replays,
            t_replay=self._t_replay,
            t_total=(t_simplify + t_triplet + self._t_blast + blaster.t_load
                     + self._t_replay),
        )
