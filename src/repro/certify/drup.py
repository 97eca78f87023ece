"""Standalone reverse-unit-propagation (RUP) proof checker.

Verifies the DRUP-style proofs emitted by
:class:`repro.sat.proof.ProofLog` **without importing any of the
solver's propagation code**: this module speaks signed DIMACS integers
and implements its own unit propagation over clauses and
pseudo-Boolean constraints.

A proof is a sequence of steps, fed either as integers
(:meth:`RupChecker.add_step`, the in-memory channel) or as text lines
(:meth:`RupChecker.add_line`, the spool and offline format):

- ``i <lits> 0``                 input clause (axiom),
- ``b <bound> (<coef> <lit>)* 0``  input PB constraint
  ``sum coef*lit >= bound`` (axiom),
- ``<lits> 0``                   addition: the clause must be *RUP* --
  asserting the negation of every literal and unit-propagating over the
  current database must yield a conflict,
- ``d <lits> 0``                 deletion of a previously added clause
  (matched as a literal multiset; watched-literal solvers permute clause
  literals in place),
- ``c ...``                      comment.

Input clauses may also arrive as one flat block of length-prefixed
records, ``[n, lit_1 .. lit_n, n', ...]`` (:meth:`RupChecker.add_inputs`,
the form a solver's input snapshot takes), read in one pass.

The checker keeps one assignment at the *level-0 fixpoint* -- everything
unit propagation derives from the database alone -- and extends it as
units and clauses arrive (clauses are attached in one batch before the
next check).  Each check assigns its seed on top, propagates, and rolls
back to that trail.  A deletion that may shrink the fixpoint -- of a
unit clause, of a clause that is the level-0 reason of a trail literal,
or of any clause while level 0 is in conflict -- marks the trail stale,
and the next check rebuilds it from the surviving units.

Clauses of three or more literals propagate through two watched
literals, binary clauses through per-literal implication lists.  PB
propagation mirrors the engine's counter-based rule: with ``slack = (max
achievable LHS over non-false literals) - bound``, ``slack < 0`` is a
conflict and an unassigned literal with ``coef > slack`` is forced true;
each PB keeps its slack as a counter that the trail updates and a
rollback restores.  Because the checker propagates to fixpoint on every
check, it is at least as strong as the solver's watch-driven
propagation, so every honestly derived clause checks -- while soundness
(an accepted addition really is implied) holds independently of
anything the solver did.

**Two cores.**  :class:`RupChecker` is a front: variable numbering, text
parsing, step validation, the deletion-key index and the statistics are
Python, here, once.  The database and every loop over it -- the level-0
settle, each RUP and assumption check with its rollback, the stale-trail
rebuild, deletions -- live in a core:

- :class:`ListCore`, here: the reference, plain Python lists;
- ``rupcore.CompiledCore``: the same algorithm in ``_rup.c`` over flat
  arrays the Python side allocates, driven through ``ctypes``.

The core is chosen by the backend setting of all three compiled cores
(:mod:`repro.native`: ``REPRO_SAT_BACKEND`` or ``set_default_backend``),
where ``auto`` means the compiled core when it builds and the list core
otherwise, the reason recorded (``backend_status()["checker"]`` of
:mod:`repro.sat.core`).  Both cores
accept and reject the same steps and give the same verdicts and
``rup_checks``; the order in which they propagate, and with it
``stats["propagations"]`` and ``stats["rebuilds"]``, may differ.

After feeding a proof, :meth:`RupChecker.check_assumptions` decides
"database UNSAT under these assumption literals by unit propagation
alone" -- the final verdict for one binary-search probe.
:meth:`RupChecker.check_model` evaluates a SAT probe's model against
the proof's input records.
"""

from __future__ import annotations

__all__ = ["ListCore", "ProofError", "RupChecker", "check_proof_lines"]

#: PB coefficients, bounds and coefficient sums are kept below this, so
#: the compiled core's 64-bit slack counters cannot overflow.
PB_LIMIT = 1 << 62


class ProofError(ValueError):
    """A proof step is malformed or an addition fails its RUP check."""


class RupChecker:
    """Incremental RUP checker over a clause + PB database.

    Literals are signed non-zero integers (DIMACS convention).  Feed
    proof steps with :meth:`add_step` (or text lines with
    :meth:`add_line`); each addition is checked on arrival and a failure
    raises :class:`ProofError` -- a fully fed proof is therefore already
    verified step by step.

    Internally, variables are renumbered 1, 2, ... in order of first
    appearance, so the per-literal tables (values, watch lists, PB
    occurrences) grow with the variables a proof uses, never with the
    largest number in it.  A first input block whose words all lie
    within its length in absolute value keeps its own numbering
    instead (see :meth:`add_inputs`); the tables stay bounded by the
    block.  Either core indexes its per-literal tables by the signed
    internal literal; with room for ``n`` variables a table has
    ``2n + 1`` slots.

    ``core`` picks the core by backend name (``"auto"``, ``"pure"`` or
    ``"fast"``; default: the SAT backend setting, see the module
    docstring).  :attr:`core_name` tells which one runs and
    :attr:`fallback_reason` why a requested compiled core does not.
    """

    def __init__(self, core: str | None = None) -> None:
        from repro.certify.rupcore import make_core

        self.stats = {
            "inputs": 0,
            "pb_inputs": 0,
            "additions": 0,
            "deletions": 0,
            "rup_checks": 0,
            "assumption_checks": 0,
            "propagations": 0,
            "rebuilds": 0,
        }
        self._core = make_core(core, self.stats)
        #: PB inputs as fed (internal literals), for :meth:`input_formula`.
        self._pbs: list[tuple[list[int], list[int], int]] = []
        #: Sorted-literal key -> clause indices, for deletions; built
        #: lazily up to ``_keyed`` (most proofs never delete).
        self._by_key: dict[tuple[int, ...], list[int]] = {}
        self._keyed = 0
        #: DIMACS literal -> internal literal for variables above
        #: ``_ident`` (variables up to it keep their DIMACS number), and
        #: internal variable -> DIMACS variable.
        self._index: dict[int, int] = {}
        self._ident = 0
        self._names: list[int] = [0]
        #: Variables the per-literal tables have room for.
        self._nvars = 0
        #: True once the database contains the empty clause.
        self.contradiction = False

    @property
    def core_name(self) -> str:
        """``"fast"`` (compiled core) or ``"pure"`` (list core)."""
        return self._core.name

    @property
    def fallback_reason(self) -> str | None:
        """Why the compiled core is not running, when it was asked for."""
        return self._core.fallback_reason

    # ------------------------------------------------------------------
    # Proof steps
    # ------------------------------------------------------------------

    def add_step(self, kind: str, lits, coefs=None, bound: int = 0) -> None:
        """Apply one proof step given as signed DIMACS integers.

        ``kind`` is ``"i"`` (input clause), ``"b"`` (input PB constraint
        ``sum coefs*lits >= bound``), ``"a"`` (addition, RUP-checked)
        or ``"d"`` (deletion)."""
        if 0 in lits:
            raise ProofError(f"zero literal in {kind!r} step {list(lits)}")
        ints = self._internal(lits)
        if kind == "i":
            self.stats["inputs"] += 1
            if ints:
                self._core.add_clause(ints)
            else:
                self.contradiction = True
            return
        if kind == "b":
            if coefs is None or len(coefs) != len(lits):
                raise ProofError(
                    f"PB step needs one coefficient per literal: {list(lits)}"
                )
            if any(c <= 0 for c in coefs):
                raise ProofError(
                    f"non-positive PB coefficient in {list(coefs)}"
                )
            coefs = list(coefs)
            if sum(coefs) >= PB_LIMIT or abs(bound) >= PB_LIMIT:
                raise ProofError(
                    f"PB coefficients or bound beyond 2^62 in {coefs}"
                )
            self.stats["pb_inputs"] += 1
            self._pbs.append((ints, coefs, bound))
            if not self._core.add_pb(ints, coefs, bound):
                self.contradiction = True
        elif kind == "d":
            self.stats["deletions"] += 1
            self._delete_clause(ints, lits)
        elif kind == "a":
            self.stats["additions"] += 1
            self.stats["rup_checks"] += 1
            if not self._refutes([-l for l in ints]):
                raise ProofError(
                    f"addition {list(lits)} is not a reverse-unit-"
                    "propagation consequence of the database"
                )
            if ints:
                self._core.add_clause(ints)
            else:
                self.contradiction = True
        else:
            raise ProofError(f"unknown proof step kind {kind!r}")

    def add_inputs(self, words) -> None:
        """Apply a block of input clauses given as flat words.

        ``words`` holds length-prefixed records of signed DIMACS
        literals, ``[n, lit_1, ..., lit_n, n', ...]``, the form a
        :class:`repro.sat.proof.ProofLog` keeps a solver's input
        snapshot in; a record of size 0 is the empty clause.  The block
        is read in one pass and its clauses are attached in one batch
        before the next check, as :meth:`add_step` does with ``"i"``
        steps one at a time.

        A checker with no variables yet numbers them by identity when no
        word exceeds the block's length in absolute value, so the
        per-literal tables are allocated once, at a size bounded by the
        block; otherwise (a later block, or a block with a huge variable
        number) variables are renumbered in order of first appearance,
        as for single steps.  A size word that is negative or overruns
        the block, and a zero literal inside a record, raise
        :class:`ProofError`; the block is then not applied at all.
        """
        core = self._core
        block, size, records, empty, top = core.scan_block(words)
        self.stats["inputs"] += records
        if empty:
            self.contradiction = True
        if records == empty:
            return
        if len(self._names) == 1 and top <= size:
            # Internal literal == DIMACS literal.
            self._names = list(range(top + 1))
            self._ident = top
            self._grow(top)
            core.store_block(block, None, records - empty)
        else:
            self._number(core.block_literals(block))
            core.store_block(block, self._mapper(), records - empty)

    def add_line(self, line: str) -> None:
        """Parse one text proof line and apply it via :meth:`add_step`."""
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            return
        kind = tokens[0]
        if kind in ("i", "b", "d"):
            del tokens[0]
        else:
            kind = "a"
        try:
            nums = [int(t) for t in tokens]
        except ValueError:
            raise ProofError(f"non-integer literal in {line!r}") from None
        if not nums or nums[-1] != 0:
            raise ProofError(f"missing terminating 0 in {line!r}")
        nums.pop()
        if kind != "b":
            self.add_step(kind, nums)
        elif not nums:
            raise ProofError(f"empty PB constraint in {line!r}")
        else:
            self.add_step("b", nums[2::2], nums[1::2], nums[0])

    # ------------------------------------------------------------------
    # Variable numbering
    # ------------------------------------------------------------------

    def _internal(self, lits) -> list[int]:
        """Map DIMACS literals to internal ones, numbering each new
        variable next."""
        top = self._ident
        if not top:
            index = self._index
            ints = list(map(index.get, lits))
            if None in ints:
                self._number(lits)
                ints = list(map(index.get, lits))
            return ints
        if lits and max(lits) <= top and -min(lits) <= top:
            return list(lits)
        self._number(lits)
        return list(map(self._mapper(), lits))

    def _mapper(self):
        """The DIMACS -> internal literal map as a function."""
        index = self._index
        top = self._ident
        if not top:
            return index.__getitem__
        return lambda lit: lit if -top <= lit <= top else index[lit]

    def _number(self, lits) -> None:
        """Number the variables of ``lits`` not seen yet, in order of
        first appearance, and give the tables room for them."""
        index = self._index
        names = self._names
        top = self._ident
        for lit in lits:
            var = abs(lit)
            if var > top and var not in index:
                n = len(names)
                names.append(var)
                index[var] = n
                index[-var] = -n
        if len(names) - 1 > self._nvars:
            self._grow(len(names) - 1)

    def _grow(self, need: int) -> None:
        """Give the per-literal tables room for ``need`` variables, at
        least doubling it."""
        n = self._nvars
        new = max(need - n, n, 32)
        self._core.grow(n, n + new)
        self._nvars = n + new

    # ------------------------------------------------------------------
    # Database and checks
    # ------------------------------------------------------------------

    def _delete_clause(self, ints, lits) -> None:
        core = self._core
        core.attach()
        by_key = self._by_key
        clause = core.clause
        for idx in range(self._keyed, core.nclauses()):
            stored = clause(idx)
            if stored is not None:
                by_key.setdefault(tuple(sorted(stored)), []).append(idx)
        self._keyed = core.nclauses()
        key = tuple(sorted(dict.fromkeys(ints)))
        idxs = by_key.get(key)
        if not idxs:
            raise ProofError(
                f"deletion of clause not in database: {list(lits)}"
            )
        core.delete(idxs.pop(), key)

    def _settle(self) -> bool:
        """Bring level 0 to its fixpoint; True when it is in conflict."""
        return self._core.settle()

    def _refutes(self, seed: list[int]) -> bool:
        """Assert ``seed`` on top of the level-0 trail and propagate; True
        iff a conflict is derived (the database refutes the seed).  The
        trail is rolled back to level 0 afterwards."""
        if self.contradiction or self._settle():
            return True
        return self._core.refutes(seed)

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def check_assumptions(self, assumptions: list[int]) -> bool:
        """True when the database is unsatisfiable under the assumption
        literals by unit propagation alone.  With a fully fed proof of an
        UNSAT probe this closes the argument: the solver's core clause
        (or the empty clause) is in the database, so propagation refutes
        the probe's assumptions."""
        if 0 in assumptions:
            raise ProofError(f"zero literal in assumptions {assumptions}")
        self.stats["assumption_checks"] += 1
        return self._refutes(self._internal(list(assumptions)))

    def check_model(self, model, clauses=(), pbs=None) -> str | None:
        """Evaluate a model against input records; None when it
        satisfies every one, else a description of the first it
        violates.

        ``model`` holds one byte per DIMACS variable (variable ``v`` at
        ``model[v - 1]``, non-zero for true; variables past its end are
        false).  ``clauses`` are flat blocks of length-prefixed DIMACS
        records, as :meth:`add_inputs` reads them; ``pbs`` is a flat
        ``array('q')`` of PB records ``[n, bound, coef_1, lit_1, ...]``
        (``sum coef*lit >= bound``).  Nothing is added to the database
        and no check is counted."""
        core = self._core
        model = bytes(model)
        for block in clauses:
            pos = core.eval_clauses(model, block)
            if pos == -2:
                return "malformed clause block"
            if pos >= 0:
                lits = list(block[pos + 1:pos + 1 + block[pos]])
                return f"input clause {lits} is false under the model"
        if pbs is not None:
            pos = core.eval_pbs(model, pbs)
            if pos == -2:
                return "malformed PB block"
            if pos >= 0:
                terms = list(pbs[pos + 2:pos + 2 + 2 * pbs[pos]])
                return (f"input PB {terms} >= {pbs[pos + 1]} is violated "
                        "by the model")
        return None

    def input_formula(self) -> tuple[list[list[int]], list[tuple]]:
        """The *current* database split as (clauses, pb constraints) --
        used by tests to cross-check verdicts against a brute-force
        oracle."""
        core = self._core
        core.attach()
        names = self._names

        def dimacs(lits):
            return [names[l] if l > 0 else -names[-l] for l in lits]

        cls = [dimacs(c) for c in map(core.clause, range(core.nclauses()))
               if c is not None]
        return cls, [(dimacs(ls), cs, b) for ls, cs, b in self._pbs]


class ListCore:
    """The reference core: the database and its propagation loops over
    plain Python lists.

    The per-literal tables are lists indexed by the signed internal
    literal itself: with ``2n + 1`` slots, ``+v`` lands on slot ``v``
    and ``-v`` on slot ``2n + 1 - v``."""

    name = "pure"

    def __init__(self, stats: dict) -> None:
        self.stats = stats
        self.fallback_reason: str | None = None
        #: Clause database (internal literals, watches first); deleted
        #: slots become None.
        self._clauses: list[list[int] | None] = []
        #: Per PB: its (lits, coefs) by decreasing coefficient.
        self._pb_sorted: list[tuple[list[int], list[int]]] = []
        #: Per PB: slack under the empty assignment, and under the
        #: trail literals propagated so far.
        self._slack0: list[int] = []
        self._slack: list[int] = []
        #: Clauses not yet attached to the watch structures.
        self._inputs: list[list[int]] = []
        #: Unit clauses, and literals PB constraints force outright --
        #: the seed of every level-0 rebuild.
        self._units: list[list[int]] = []
        self._pb_units: list[int] = []
        #: Literal value: 1 true, -1 false, 0 unassigned.
        self.val: list[int] = [0]
        #: Literal -> clauses of three or more literals watching it
        #: (visited when it turns false).
        self._watches: list = [()]
        #: Literal -> the literals binary clauses imply when it is true.
        self._implied: list = [()]
        #: Literal -> (pb index, coef) of the PBs it falsifies a term of.
        #: The three tables hold a shared empty tuple until a literal
        #: gets its first entry.
        self._pb_occ: list = [()]
        #: Level-0 trail, then (during a check) the check's literals.
        self._trail: list[int] = []
        #: Trail prefix whose consequences are propagated.
        self._head0 = 0
        #: Sorted-literal keys of the clauses that imply a level-0
        #: literal.
        self._reasons0: set[tuple[int, ...]] = set()
        #: Level 0 hit a conflict: every check refutes until a deletion.
        self._conflict0 = False
        #: A deletion may have shrunk the fixpoint: rebuild before use.
        self._stale = False

    # -- the front's interface ------------------------------------------

    def grow(self, n: int, new: int) -> None:
        """Room for ``new`` variables instead of ``n``."""
        more = new - n

        def regrow(old, fill):
            # Slots 1..n keep +1..+n, the last n keep -n..-1; the new
            # variables' slots go in between.
            return old[:n + 1] + [fill] * (2 * more) + old[n + 1:]

        self.val = regrow(self.val, 0)
        self._watches = regrow(self._watches, ())
        self._implied = regrow(self._implied, ())
        self._pb_occ = regrow(self._pb_occ, ())

    @staticmethod
    def scan_block(words):
        """Validate a block: (its records as lists, words, records,
        empty records, largest |word|), or :class:`ProofError`."""
        words = list(words)
        end = len(words)
        top = max(max(words, default=0), -min(words, default=0))
        if top <= end:
            # Every word goes through one table of shared ints, as
            # renumbered literals come from the front's index: one int
            # object per literal value keeps propagation's memory reads
            # local.
            shared = [*range(top + 1), *range(-top, 0)]
            words = list(map(shared.__getitem__, words))
        recs = []
        append = recs.append
        pos = 0
        while pos < end:
            nxt = pos + 1 + words[pos]
            if nxt <= pos:
                break
            append(words[pos + 1:nxt])
            pos = nxt
        if pos != end:
            if pos > end:
                # The last record runs past the end; its slice stopped
                # there.
                pos = end - 1 - len(recs[-1])
            raise ProofError(
                f"input record at word {pos} has size {words[pos]}, "
                f"which does not fit the block of {end} words"
            )
        empty = 0
        if 0 in words:
            # A zero word is either the size of an empty record (the
            # empty clause) or a zero literal inside a record.
            bad = next((r for r in recs if 0 in r), None)
            if bad is not None:
                raise ProofError(f"zero literal in input record {bad}")
            empty = recs.count([])
        return recs, end, len(recs), empty, top

    @staticmethod
    def block_literals(recs):
        return [lit for r in recs for lit in r]

    def store_block(self, recs, get, records: int) -> None:
        """Queue the non-empty records, mapped through ``get`` (None:
        numbered by identity, as :meth:`scan_block` left them)."""
        if get is None:
            self._inputs.extend(r for r in recs if r)
        else:
            self._inputs.extend(list(map(get, r)) for r in recs if r)

    def add_clause(self, ints: list[int]) -> None:
        """Queue a non-empty clause (an input or a checked addition)."""
        self._inputs.append(ints)

    def add_pb(self, lits: list[int], coefs: list[int], bound: int) -> bool:
        """Store a PB constraint; False when no assignment satisfies
        it."""
        idx = len(self._slack0)
        order = sorted(zip(coefs, lits), reverse=True)
        self._pb_sorted.append(([q for _, q in order], [c for c, _ in order]))
        pb_occ = self._pb_occ
        for lit, coef in zip(lits, coefs):
            occ = pb_occ[-lit]
            if not occ:
                occ = pb_occ[-lit] = []
            occ.append((idx, coef))
        slack = sum(coefs) - bound
        self._slack0.append(slack)
        self._slack.append(slack)
        if slack < 0:
            return False
        forced = [lit for lit, coef in zip(lits, coefs) if coef > slack]
        self._pb_units.extend(forced)
        if self.settle():
            return True
        # Level 0 is at its fixpoint: count the terms it falsifies.
        val = self.val
        slack -= sum(c for q, c in zip(lits, coefs) if val[q] == -1)
        self._slack[idx] = slack
        if slack < 0:
            self._conflict0 = True
            return True
        for lit, coef in zip(lits, coefs):
            if coef > slack and val[lit] == 0:
                self._assign0(lit, None)
        return True

    def attach(self) -> None:
        """Store the pending clauses."""
        if self._inputs:
            inputs = self._inputs
            self._inputs = []
            self._store_clauses(inputs)

    def nclauses(self) -> int:
        return len(self._clauses)

    def clause(self, idx: int) -> list[int] | None:
        """Clause ``idx``'s literals (internal), None once deleted."""
        return self._clauses[idx]

    def delete(self, idx: int, key: tuple[int, ...]) -> None:
        """Delete clause ``idx`` (sorted literals ``key``)."""
        clauses = self._clauses
        clause = clauses[idx]
        clauses[idx] = None
        if self._conflict0 or len(clause) == 1 or key in self._reasons0:
            self._stale = True
        if len(clause) == 2:
            a, b = clause
            self._implied[-a].remove(b)
            self._implied[-b].remove(a)
        elif len(clause) > 2:
            for watch in clause[:2]:
                ws = self._watches[watch]
                # By identity: an equal clause may be stored twice.
                del ws[next(i for i, c in enumerate(ws) if c is clause)]
        clause.clear()  # a unit drops out of the next rebuild's seed

    def settle(self) -> bool:
        """Bring level 0 to its fixpoint; True when it is in conflict."""
        if self._inputs:
            self.attach()
        if self._stale:
            self._rebuild()
        if not self._conflict0 and self._head0 < len(self._trail):
            conflict, self._head0 = self._propagate(
                self._head0, self._reasons0
            )
            self._conflict0 = conflict
        return self._conflict0

    def refutes(self, seed: list[int]) -> bool:
        """Assert ``seed`` on top of the settled level-0 trail and
        propagate; True iff a conflict is derived.  Rolls back."""
        if self.settle():
            return True
        val = self.val
        trail = self._trail
        mark = head = len(trail)
        conflict = False
        for lit in seed:
            have = val[lit]
            if have == 0:
                val[lit] = 1
                val[-lit] = -1
                trail.append(lit)
            elif have == -1:
                conflict = True
                break
        if not conflict:
            conflict, head = self._propagate(mark, None)
        self.stats["propagations"] += head - mark
        if self._slack0:
            slack = self._slack
            pb_occ = self._pb_occ
            for lit in trail[mark:head]:
                for p, c in pb_occ[lit]:
                    slack[p] += c
        for lit in trail[mark:]:
            val[lit] = 0
            val[-lit] = 0
        del trail[mark:]
        return conflict

    @staticmethod
    def eval_clauses(model: bytes, words) -> int:
        """Position of the first record of ``words`` that ``model``
        falsifies; -1 when all hold, -2 when the block is malformed."""
        end = len(words)
        top = max(len(model), max(words, default=0), -min(words, default=0))
        pos_part = list(map(bool, model))
        pos_part += [False] * (top - len(pos_part))
        # truth[lit] for -top <= lit <= top; variables past the model
        # are false, so their negative literals are true.
        truth = [False, *pos_part, *[not x for x in reversed(pos_part)]]
        is_true = truth.__getitem__
        pos = 0
        while pos < end:
            nxt = pos + 1 + words[pos]
            if nxt <= pos or nxt > end:
                return -2
            if not any(map(is_true, words[pos + 1:nxt])):
                return pos
            pos = nxt
        return -1

    @staticmethod
    def eval_pbs(model: bytes, words) -> int:
        """Position of the first PB record ``[n, bound, coef, lit, ...]``
        that ``model`` violates; -1 when all hold, -2 when malformed."""
        nvars = len(model)
        end = len(words)
        pos = 0
        while pos < end:
            if end - pos < 2 or words[pos] < 0:
                return -2
            nxt = pos + 2 + 2 * words[pos]
            if nxt > end:
                return -2
            total = 0
            for k in range(pos + 2, nxt, 2):
                lit = words[k + 1]
                var = abs(lit)
                t = 0 < var <= nvars and model[var - 1] != 0
                if t if lit > 0 else not t and var:
                    total += words[k]
            if total < words[pos + 1]:
                return pos
            pos = nxt
        return -1

    # -- level 0 ----------------------------------------------------------

    def _store_clauses(self, batch: list[list[int]]) -> None:
        """Add non-empty clauses, dropping repeated literals in place
        (watches need two distinct literals), and extend the level-0
        trail."""
        self._clauses.extend(batch)
        val = self.val
        watches = self._watches
        implied = self._implied
        units = self._units
        settled = not (self._stale or self._conflict0)
        # No literal is false while the trail is empty.
        trail = self._trail
        for lits in batch:
            size = len(lits)
            if size == 2:
                if lits[0] == lits[1]:
                    del lits[1]
                    size = 1
            elif size == 3:
                a, b, c = lits
                if a == b or a == c or b == c:
                    lits[:] = dict.fromkeys(lits)
                    size = len(lits)
            elif size > 3 and len(set(lits)) < size:
                lits[:] = dict.fromkeys(lits)
                size = len(lits)
            if size == 1:
                units.append(lits)
                if settled:
                    self._assign0(lits[0], None)
                    settled = not self._conflict0
                continue
            if (settled and trail
                    and (val[lits[0]] == -1 or val[lits[1]] == -1)):
                self._watch_non_false(lits)
                settled = not self._conflict0
            if size == 2:
                a, b = lits
                entries = implied[-a]
                if entries:
                    entries.append(b)
                else:
                    implied[-a] = [b]
                entries = implied[-b]
                if entries:
                    entries.append(a)
                else:
                    implied[-b] = [a]
            else:
                entries = watches[lits[0]]
                if entries:
                    entries.append(lits)
                else:
                    watches[lits[0]] = [lits]
                entries = watches[lits[1]]
                if entries:
                    entries.append(lits)
                else:
                    watches[lits[1]] = [lits]

    def _watch_non_false(self, lits: list[int]) -> None:
        """Move up to two non-false literals to the watch positions; a
        clause left with one (or none) is unit (or a conflict) at
        level 0."""
        val = self.val
        k = 0
        for i, q in enumerate(lits):
            if val[q] != -1:
                lits[k], lits[i] = q, lits[k]
                k += 1
                if k == 2:
                    return
        if k == 0:
            self._conflict0 = True
        elif val[lits[0]] == 0:
            self._assign0(lits[0], tuple(sorted(lits)))

    def _assign0(self, lit: int, reason) -> None:
        """Add ``lit`` to the level-0 trail (propagated lazily);
        ``reason`` is the sorted key of the clause implying it."""
        val = self.val
        have = val[lit]
        if have == 0:
            val[lit] = 1
            val[-lit] = -1
            self._trail.append(lit)
            if reason is not None:
                self._reasons0.add(reason)
        elif have == -1:
            self._conflict0 = True

    def _rebuild(self) -> None:
        """Re-derive the level-0 trail from the surviving units."""
        self.stats["rebuilds"] += 1
        val = self.val
        for lit in self._trail:
            val[lit] = 0
            val[-lit] = 0
        self._trail = []
        self._head0 = 0
        self._reasons0 = set()
        self._slack = list(self._slack0)
        self._stale = self._conflict0 = False
        self._units = [u for u in self._units if u]
        for unit in self._units:
            self._assign0(unit[0], None)
        for lit in self._pb_units:
            self._assign0(lit, None)

    # -- unit propagation (clauses + PB) ---------------------------------

    def _propagate(self, head: int, reasons) -> tuple[bool, int]:
        """Propagate the trail from ``head`` to fixpoint.  Returns
        (conflict, new head); ``reasons`` (level 0 only) collects the
        keys of the clauses that imply a literal."""
        val = self.val
        trail = self._trail
        watches = self._watches
        implied = self._implied
        pb_occ = self._pb_occ
        slack = self._slack
        pb_sorted = self._pb_sorted
        while head < len(trail):
            lit = trail[head]
            head += 1
            occ = pb_occ[lit]
            if occ:
                # Count every term this literal falsifies before any
                # early return, so a rollback restores exact slacks.
                for p, c in occ:
                    slack[p] -= c
                for p, _ in occ:
                    s = slack[p]
                    if s < 0:
                        return True, head
                    plits, pcoefs = pb_sorted[p]
                    for q, c in zip(plits, pcoefs):
                        if c <= s:
                            break
                        if val[q] == 0:
                            val[q] = 1
                            val[-q] = -1
                            trail.append(q)
            false = -lit
            for q in implied[lit]:
                have = val[q]
                if have == 0:
                    val[q] = 1
                    val[-q] = -1
                    trail.append(q)
                    if reasons is not None:
                        reasons.add((false, q) if false < q else (q, false))
                elif have == -1:
                    return True, head
            ws = watches[false]
            if not ws:
                continue
            keep = []
            conflict = False
            for clause in ws:
                other = clause[0]
                if other == false:
                    other = clause[1]
                    clause[0] = other
                    clause[1] = false
                have = val[other]
                if have != 1:
                    q = clause[2]
                    if val[q] != -1:
                        clause[1] = q
                        clause[2] = false
                        entries = watches[q]
                        if entries:
                            entries.append(clause)
                        else:
                            watches[q] = [clause]
                        continue
                    if len(clause) > 3:
                        for k in range(3, len(clause)):
                            q = clause[k]
                            if val[q] != -1:
                                clause[1] = q
                                clause[k] = false
                                entries = watches[q]
                                if entries:
                                    entries.append(clause)
                                else:
                                    watches[q] = [clause]
                                break
                        else:
                            k = 0
                        if k:
                            continue
                    if have == -1:
                        conflict = True
                    elif not conflict:
                        val[other] = 1
                        val[-other] = -1
                        trail.append(other)
                        if reasons is not None:
                            reasons.add(tuple(sorted(clause)))
                keep.append(clause)
            watches[false] = keep
            if conflict:
                return True, head
        return False, head


def check_proof_lines(
    lines, assumptions: list[int] | None = None
) -> RupChecker:
    """Feed a whole proof, then require the final refutation.

    Raises :class:`ProofError` when a step fails its RUP check or the
    database does not refute ``assumptions`` (default: no assumptions,
    i.e. the proof must establish outright unsatisfiability).
    """
    checker = RupChecker()
    for line in lines:
        checker.add_line(line)
    if not checker.check_assumptions(list(assumptions or [])):
        raise ProofError(
            "proof does not refute the claimed assumptions "
            f"{list(assumptions or [])}"
        )
    return checker
