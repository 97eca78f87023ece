"""Per-probe certification wired into the binary search.

:class:`ProbeCertifier` attaches to one BIN_SEARCH run
(:func:`repro.core.optimize.bin_search`) and to the single SOLVE of a
feasibility query.  It starts proof logging on the CDCL engine, and
after every probe either

- **UNSAT** -- feeds the proof steps logged since the last probe to an
  independent :class:`repro.certify.drup.RupChecker` (each learnt clause
  is RUP-checked on arrival) and requires the checker to refute the
  probe's guard assumption by unit propagation -- or, for an unguarded
  probe, to derive unsatisfiability outright, or
- **SAT** -- re-checks the model against every original constraint
  (:meth:`Solver.check_model`, plain evaluation, no propagation code),
  decodes the allocation and audits it with
  :func:`repro.certify.audit.audit_witness`.

Interrupted probes answered nothing, so they are recorded as
``skipped``.  In the incremental probe mode one proof grows across all
probes; in the fresh-encoding mode (``reuse_learned=False``)
:meth:`ProbeCertifier.reset` gives every new encoding its own proof and
checker.
"""

from __future__ import annotations

import time

from repro.certify.audit import audit_witness
from repro.certify.drup import ProofError, RupChecker
from repro.certify.result import CertifiedResult, ProbeCertificate
from repro.sat.literals import to_dimacs

__all__ = ["ProbeCertifier"]


class ProbeCertifier:
    """Certify every probe of one binary search (or one SOLVE).

    ``spool`` (a :class:`repro.certify.proofio.ProofSpool`) persists the
    proof to disk as crash-safe length-prefixed records alongside the
    in-memory check; artifact damage that the spool cannot repair marks
    the whole certificate unverified (``proof_artifact_ok``) -- the
    in-memory verdicts stay intact for diagnosis, but a run must never
    report "certified" next to a corrupt artifact.
    """

    def __init__(self, tasks, arch, enc, objective=None, spool=None):
        self.tasks = tasks
        self.arch = arch
        self.enc = enc
        self.objective = objective
        self.proof = enc.solver.sat.start_proof()
        self.checker = RupChecker()
        self._fed = 0
        #: Proof lines of the encodings certified before this one.
        self._lines_before = 0
        self.spool = spool
        self.result = CertifiedResult()
        if spool is not None:
            self.result.proof_artifact = spool.path

    def reset(self, enc) -> None:
        """Certify the next probes on ``enc``, a fresh encoding: a new
        proof and a new checker, since nothing derived on the previous
        encoding holds there.  ``proof_lines`` keeps the total."""
        self._lines_before += len(self.proof)
        self.enc = enc
        self.proof = enc.solver.sat.start_proof()
        self.checker = RupChecker()
        self._fed = 0

    # -- bin_search hook ------------------------------------------------

    def on_probe(self, probe, guard) -> None:
        """Callback invoked by :func:`repro.core.optimize.bin_search`
        after each probe, while the probe's model (if SAT) is loaded."""
        index = len(self.result.probes)
        if probe.interrupted:
            self.result.add(
                ProbeCertificate(index=index, kind="skipped", ok=True)
            )
            return
        if probe.sat:
            self.result.add(self._check_sat(index, probe.cost))
        else:
            self.result.add(self._check_unsat(index, guard))

    # -- SAT side -------------------------------------------------------

    def _check_sat(self, index: int, claimed_cost) -> ProbeCertificate:
        """Model re-check against the original constraints + witness
        audit of the decoded allocation."""
        t0 = time.perf_counter()
        problems: list[str] = []
        if not self.enc.solver.sat.check_model():
            problems.append(
                "model violates an original clause/PB constraint"
            )
        report = audit_witness(
            self.tasks, self.arch, self.enc.decode(),
            objective=self.objective, claimed_cost=claimed_cost,
        )
        problems.extend(report.problems)
        return ProbeCertificate(
            index=index,
            kind="sat",
            ok=not problems,
            detail="; ".join(problems) or None,
            claimed_cost=claimed_cost,
            recomputed_cost=report.recomputed_cost,
            seconds=time.perf_counter() - t0,
        )

    # -- UNSAT side -----------------------------------------------------

    def _check_unsat(self, index: int, guard) -> ProbeCertificate:
        t0 = time.perf_counter()
        checked0 = self.checker.stats["rup_checks"]
        detail = None
        try:
            self._feed()
            if guard is None:
                ok = self.checker.check_assumptions([])
                if not ok:
                    detail = "proof does not establish unsatisfiability"
            else:
                glit = to_dimacs(self.enc.solver._assumption_lit(guard))
                ok = self.checker.check_assumptions([glit])
                if not ok:
                    detail = (
                        "proof does not refute the probe's guard "
                        "assumption"
                    )
        except ProofError as exc:
            ok = False
            detail = f"proof check failed: {exc}"
        return ProbeCertificate(
            index=index,
            kind="unsat",
            ok=ok,
            detail=detail,
            proof_steps_checked=(
                self.checker.stats["rup_checks"] - checked0
            ),
            seconds=time.perf_counter() - t0,
        )

    def _feed(self) -> None:
        """Feed proof steps logged since the last check to the checker
        as signed DIMACS integers -- the input snapshot as one block
        (:meth:`RupChecker.add_inputs`), later steps one at a time --
        after mirroring their text form to the on-disk spool (verified
        appends; see :mod:`repro.certify.proofio`) when one is
        attached."""
        proof = self.proof
        start = self._fed
        if start >= len(proof):
            return
        self._fed = len(proof)
        if self.spool is not None and self.result.proof_artifact_ok:
            try:
                self.spool.append(list(proof.lines(start)))
            except Exception as exc:  # noqa: BLE001 - artifact boundary
                # ProofArtifactError (a RuntimeError) and raw-IO
                # OSErrors alike condemn the artifact.
                self.result.proof_artifact_ok = False
                self.result.proof_artifact_error = str(exc)
        if start == 0:
            # The first feed takes the whole log, snapshot included.
            self.checker.add_inputs(proof.block)
            new = proof.steps
        else:
            new = proof.steps[start - proof.block_records:]
        add = self.checker.add_step
        for step in new:
            lits = list(map(to_dimacs, step[1]))
            if step[0] == "b":
                add("b", lits, step[2], step[3])
            else:
                add(step[0], lits)

    # -- wrap-up --------------------------------------------------------

    def finalize(self) -> CertifiedResult:
        # Flush trailing proof steps (logged after the last UNSAT check)
        # so the on-disk artifact holds the *complete* proof; one that
        # fails its check condemns the certificate, it does not raise.
        try:
            self._feed()
        except ProofError as exc:
            self.result.add(ProbeCertificate(
                index=len(self.result.probes),
                kind="proof",
                ok=False,
                detail=f"proof check failed: {exc}",
            ))
        self.result.proof_lines = self._lines_before + len(self.proof)
        if self.spool is not None:
            self.result.proof_repairs = self.spool.repairs
            self.spool.close()
        return self.result
