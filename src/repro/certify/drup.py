"""Standalone reverse-unit-propagation (RUP) proof checker.

Verifies the DRUP-style proofs emitted by
:class:`repro.sat.proof.ProofLog` **without importing any of the
solver's propagation code**: this module depends on nothing but the
standard library, speaks signed DIMACS integers, and implements its own
unit propagation over clauses and pseudo-Boolean constraints.

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
units and clauses arrive (input clauses are attached in one batch before
the next check).  Each check assigns its seed on top, propagates, and
rolls back to that trail.  A deletion that may shrink the fixpoint --
of a unit clause, of a clause that is the level-0 reason of a trail
literal, or of any clause while level 0 is in conflict -- marks the
trail stale, and the next check rebuilds it from the surviving units.

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

After feeding a proof, :meth:`RupChecker.check_assumptions` decides
"database UNSAT under these assumption literals by unit propagation
alone" -- the final verdict for one binary-search probe.
"""

from __future__ import annotations

__all__ = ["ProofError", "RupChecker", "check_proof_lines"]


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
    block.  The tables are Python lists indexed by the signed internal
    literal itself: with ``2n + 1`` slots, ``+v`` lands on slot ``v``
    and ``-v`` on slot ``2n + 1 - v``.
    """

    def __init__(self) -> None:
        #: Clause database (internal literals, watches first); deleted
        #: slots become None.  :meth:`input_formula` reads it as DIMACS.
        self._clauses: list[list[int] | None] = []
        #: Sorted-literal key -> clause indices, for deletions; built
        #: lazily up to ``_keyed`` (most proofs never delete).
        self._by_key: dict[tuple[int, ...], list[int]] = {}
        self._keyed = 0
        #: PB database: (lits, coefs, bound) with ``sum >= bound``.
        self._pbs: list[tuple[list[int], list[int], int]] = []
        #: Per PB: its (lits, coefs) by decreasing coefficient.
        self._pb_sorted: list[tuple[list[int], list[int]]] = []
        #: Per PB: slack under the empty assignment, and under the
        #: trail literals propagated so far.
        self._slack0: list[int] = []
        self._slack: list[int] = []
        #: Input clauses not yet attached to the watch structures.
        self._inputs: list[list[int]] = []
        #: Unit clauses, and literals PB constraints force outright --
        #: the seed of every level-0 rebuild.
        self._units: list[list[int]] = []
        self._pb_units: list[int] = []
        #: DIMACS literal -> internal literal, and internal variable ->
        #: DIMACS variable.
        self._index: dict[int, int] = {}
        self._names: list[int] = [0]
        #: Variables the per-literal tables have room for.
        self._nvars = 0
        #: Literal value: 1 true, -1 false, 0 unassigned.
        self._val: list[int] = [0]
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
        #: True once the database contains the empty clause.
        self.contradiction = False
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
                self._inputs.append(ints)
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
            self.stats["pb_inputs"] += 1
            self._store_pb(ints, list(coefs), bound)
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
                self._store_clauses([ints])
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
        words = list(words)
        end = len(words)
        top = max(max(words, default=0), -min(words, default=0))
        identity = len(self._names) == 1 and top <= end
        if identity:
            # Internal literal == DIMACS literal.  Every word goes
            # through one table of shared ints, as renumbered literals
            # come from ``_index``: one int object per literal value
            # keeps propagation's memory reads local.
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
        if 0 in words:
            # A zero word is either the size of an empty record (the
            # empty clause) or a zero literal inside a record.
            bad = next((r for r in recs if 0 in r), None)
            if bad is not None:
                raise ProofError(f"zero literal in input record {bad}")
        self.stats["inputs"] += len(recs)
        if [] in recs:
            self.contradiction = True
            recs = [r for r in recs if r]
        if not recs:
            return
        if identity:
            self._names = list(range(top + 1))
            signed = shared[1:]
            self._index = dict(zip(signed, signed))
            self._grow(top)
        else:
            self._number([lit for r in recs for lit in r])
            index = self._index
            recs = [list(map(index.get, r)) for r in recs]
        self._inputs.extend(recs)

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
    # Database maintenance
    # ------------------------------------------------------------------

    def _internal(self, lits) -> list[int]:
        """Map DIMACS literals to internal ones, numbering each new
        variable next."""
        index = self._index
        ints = list(map(index.get, lits))
        if None in ints:
            self._number(lits)
            ints = list(map(index.get, lits))
        return ints

    def _number(self, lits) -> None:
        """Number the variables of ``lits`` not seen yet, in order of
        first appearance, and give the tables room for them."""
        index = self._index
        names = self._names
        for lit in lits:
            var = abs(lit)
            if var not in index:
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

        def regrow(old, fill):
            # Slots 1..n keep +1..+n, the last n keep -n..-1; the new
            # variables' slots go in between.
            return old[:n + 1] + [fill] * (2 * new) + old[n + 1:]

        self._val = regrow(self._val, 0)
        self._watches = regrow(self._watches, ())
        self._implied = regrow(self._implied, ())
        self._pb_occ = regrow(self._pb_occ, ())
        self._nvars = n + new

    def _attach_inputs(self) -> None:
        """Store the pending input clauses."""
        inputs = self._inputs
        self._inputs = []
        self._store_clauses(inputs)

    def _store_clauses(self, batch: list[list[int]]) -> None:
        """Add non-empty clauses, dropping repeated literals in place
        (watches need two distinct literals), and extend the level-0
        trail."""
        self._clauses.extend(batch)
        val = self._val
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
        val = self._val
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

    def _store_pb(self, lits: list[int], coefs: list[int], bound: int) -> None:
        idx = len(self._pbs)
        self._pbs.append((lits, coefs, bound))
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
            self.contradiction = True
            return
        forced = [lit for lit, coef in zip(lits, coefs) if coef > slack]
        self._pb_units.extend(forced)
        if self._settle():
            return
        # Level 0 is at its fixpoint: count the terms it falsifies.
        val = self._val
        slack -= sum(c for q, c in zip(lits, coefs) if val[q] == -1)
        self._slack[idx] = slack
        if slack < 0:
            self._conflict0 = True
            return
        for lit, coef in zip(lits, coefs):
            if coef > slack and val[lit] == 0:
                self._assign0(lit, None)

    def _delete_clause(self, ints, lits) -> None:
        if self._inputs:
            self._attach_inputs()
        clauses = self._clauses
        by_key = self._by_key
        for idx in range(self._keyed, len(clauses)):
            clause = clauses[idx]
            if clause is not None:
                by_key.setdefault(tuple(sorted(clause)), []).append(idx)
        self._keyed = len(clauses)
        key = tuple(sorted(dict.fromkeys(ints)))
        idxs = by_key.get(key)
        if not idxs:
            raise ProofError(
                f"deletion of clause not in database: {list(lits)}"
            )
        idx = idxs.pop()
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

    # ------------------------------------------------------------------
    # Level-0 trail
    # ------------------------------------------------------------------

    def _assign0(self, lit: int, reason) -> None:
        """Add ``lit`` to the level-0 trail (propagated lazily);
        ``reason`` is the sorted key of the clause implying it."""
        val = self._val
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
        val = self._val
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

    def _settle(self) -> bool:
        """Bring level 0 to its fixpoint; True when it is in conflict."""
        if self._inputs:
            self._attach_inputs()
        if self._stale:
            self._rebuild()
        if not self._conflict0 and self._head0 < len(self._trail):
            conflict, self._head0 = self._propagate(
                self._head0, self._reasons0
            )
            self._conflict0 = conflict
        return self._conflict0

    # ------------------------------------------------------------------
    # Unit propagation (clauses + PB)
    # ------------------------------------------------------------------

    def _propagate(self, head: int, reasons) -> tuple[bool, int]:
        """Propagate the trail from ``head`` to fixpoint.  Returns
        (conflict, new head); ``reasons`` (level 0 only) collects the
        keys of the clauses that imply a literal."""
        val = self._val
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

    def _refutes(self, seed: list[int]) -> bool:
        """Assert ``seed`` on top of the level-0 trail and propagate; True
        iff a conflict is derived (the database refutes the seed).  The
        trail is rolled back to level 0 afterwards."""
        if self.contradiction or self._settle():
            return True
        val = self._val
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
        if self._pbs:
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

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def check_assumptions(self, assumptions: list[int]) -> bool:
        """True when the database is unsatisfiable under the assumption
        literals by unit propagation alone.  With a fully fed proof of an
        UNSAT probe this closes the argument: the solver's core clause
        (or the empty clause) is in the database, so propagation refutes
        the probe's assumptions."""
        self.stats["assumption_checks"] += 1
        return self._refutes(self._internal(list(assumptions)))

    def input_formula(self) -> tuple[list[list[int]], list[tuple]]:
        """The *current* database split as (clauses, pb constraints) --
        used by tests to cross-check verdicts against a brute-force
        oracle."""
        if self._inputs:
            self._attach_inputs()
        names = self._names

        def dimacs(lits):
            return [names[l] if l > 0 else -names[-l] for l in lits]

        cls = [dimacs(c) for c in self._clauses if c is not None]
        return cls, [(dimacs(ls), cs, b) for ls, cs, b in self._pbs]


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
