"""DRUP-style proof logging for the CDCL/PB engine.

A :class:`ProofLog` records, in order, everything needed to re-derive an
UNSAT answer by reverse unit propagation (RUP) *without trusting the
solver*:

- ``("i", lits)``      -- an input clause, exactly as handed to
  :meth:`repro.sat.solver.Solver.add_clause` (pre-simplification, so the
  proof is self-contained),
- ``("b", lits, coefs, bound)`` -- an input pseudo-Boolean constraint
  ``sum coefs[i]*lits[i] >= bound`` (pre-folding/saturation; both are
  propagation-neutral, see ``docs/ROBUSTNESS.md``),
- ``("a", lits)``      -- a clause the solver claims is derivable
  (learnt clauses, learnt units, assumption-core clauses, and the empty
  clause on a level-0 conflict); a checker must verify each by RUP,
- ``("d", lits)``      -- deletion of a previously added clause (from
  learnt-DB reduction); literal order is irrelevant (watch swaps permute
  ``lits`` in place), so checkers match by literal multiset.

Literals inside the steps use the engine's flat encoding; the serialized
text form (:meth:`ProofLog.lines`) uses signed DIMACS integers so that a
checker shares no literal-encoding code with the solver.

The input snapshot :meth:`repro.sat.solver.Solver.start_proof` takes --
every clause in clause-id order, then the level-0 units -- is not a step
per clause but one flat ``array('i')`` of length-prefixed signed DIMACS
records (:attr:`ProofLog.block`), which a checker reads in one pass
(:meth:`repro.certify.drup.RupChecker.add_inputs`); its PB constraints
stay ``b`` steps.  :meth:`ProofLog.lines` and ``len()`` count each
record as one ``i`` step, in the order a step per clause had, so the
text is the same either way.  The text format is one step per line::

    i  1 -2 3 0          input clause
    b  2  1 4  1 -5 0    input PB:  1*x4 + 1*(-x5) >= 2
    -2 7 0               RUP addition (plain DRUP style)
    d -2 7 0             deletion

All hooks in the solver are guarded by ``if self.proof is not None`` so
the default (no logging) leaves the hot propagation loop untouched.
"""

from __future__ import annotations

from array import array

from repro.sat.literals import to_dimacs

__all__ = ["ProofLog", "format_step"]


def format_step(step: tuple) -> str:
    """Serialize one proof step to its text line (signed DIMACS)."""
    kind = step[0]
    if kind == "i":
        body = " ".join(str(to_dimacs(l)) for l in step[1])
        return f"i {body} 0".replace("  ", " ")
    if kind == "b":
        _, lits, coefs, bound = step
        terms = " ".join(
            f"{c} {to_dimacs(l)}" for c, l in zip(coefs, lits)
        )
        return f"b {bound} {terms} 0".replace("  ", " ")
    if kind == "a":
        body = " ".join(str(to_dimacs(l)) for l in step[1])
        return f"{body} 0".strip()
    if kind == "d":
        body = " ".join(str(to_dimacs(l)) for l in step[1])
        return f"d {body} 0".replace("  ", " ")
    raise ValueError(f"unknown proof step kind {kind!r}")


class ProofLog:
    """Ordered list of proof steps emitted by one :class:`Solver`.

    The input snapshot of :meth:`repro.sat.solver.Solver.start_proof`
    is not kept as steps: its clauses and level-0 units are one flat
    ``array('i')``, :attr:`block`, of length-prefixed signed DIMACS
    records (``[n, lit_1 .. lit_n, ...]``, size 0 for the empty
    clause) that a checker reads in one pass
    (:meth:`repro.certify.drup.RupChecker.add_inputs`).  :attr:`steps`
    holds everything else.  In step order (:meth:`lines`, ``len()``)
    each record counts as one step: the records before word
    :attr:`split` (the clauses) come first, then the snapshot's PB steps
    (the first :attr:`split_steps` of :attr:`steps`), then the rest of
    the block (the units), then the remaining steps.
    """

    __slots__ = ("steps", "block", "block_records", "split", "split_steps",
                 "inputs", "pb_inputs", "additions", "deletions")

    def __init__(self) -> None:
        self.steps: list[tuple] = []
        self.block = array("i")
        self.block_records = 0
        self.split = 0
        self.split_steps = 0
        self.inputs = 0
        self.pb_inputs = 0
        self.additions = 0
        self.deletions = 0

    def __len__(self) -> int:
        return self.block_records + len(self.steps)

    def log_snapshot(self, block: array, split: int, records: int,
                     pbs) -> None:
        """Record a solver's input snapshot on an empty log: ``block``
        holds ``records`` input records, the clauses before word
        ``split`` and the units from there on; ``pbs`` are the
        ``(lits, coefs, bound)`` input PB constraints, which come
        between the two in step order."""
        self.block = block
        self.block_records = records
        self.split = split
        self.inputs += records
        for lits, coefs, bound in pbs:
            self.log_pb(lits, coefs, bound)
        self.split_steps = len(self.steps)

    def log_inputs(self, buf, start: int, end: int) -> None:
        """Record the ``[size, lits...]`` clause records of the flat
        buffer ``buf`` between word offsets ``start`` and ``end`` as
        input clauses, in order."""
        steps = self.steps
        pos = start
        n = 0
        while pos < end:
            nxt = pos + 1 + buf[pos]
            steps.append(("i", tuple(buf[pos + 1:nxt])))
            pos = nxt
            n += 1
        self.inputs += n

    def log_pb(self, lits: list[int], coefs: list[int], bound: int) -> None:
        """Record an input PB constraint ``sum coefs*lits >= bound``."""
        self.steps.append(("b", tuple(lits), tuple(coefs), bound))
        self.pb_inputs += 1

    def log_add(self, lits: list[int]) -> None:
        """Record a derived (RUP-checkable) clause; ``[]`` is the empty
        clause, i.e. the claim that the database is unsatisfiable."""
        self.steps.append(("a", tuple(lits)))
        self.additions += 1

    def log_delete(self, lits: list[int]) -> None:
        """Record the deletion of a previously added clause."""
        self.steps.append(("d", tuple(lits)))
        self.deletions += 1

    def lines(self, start: int = 0):
        """Yield the text form of steps ``start..`` (signed DIMACS)."""
        steps = self.steps
        if start >= self.block_records + self.split_steps:
            for step in steps[start - self.block_records:]:
                yield format_step(step)
            return
        block = self.block
        for part in (
            _records(block, 0, self.split),
            steps[:self.split_steps],
            _records(block, self.split, len(block)),
            steps[self.split_steps:],
        ):
            for step in part:
                if start:
                    start -= 1
                elif type(step) is list:
                    yield " ".join(["i", *map(str, step), "0"])
                else:
                    yield format_step(step)

    def to_lines(self) -> list[str]:
        """The whole proof as a list of text lines."""
        return list(self.lines())


def _records(block: array, pos: int, end: int):
    """Yield the length-prefixed records of ``block[pos:end]`` as
    lists of words."""
    while pos < end:
        nxt = pos + 1 + block[pos]
        yield block[pos + 1:nxt].tolist()
        pos = nxt
