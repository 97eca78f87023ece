"""High-level facade: encode, optimize, decode, and re-verify.

:class:`Allocator` is the public entry point of the library::

    from repro.core import Allocator, MinimizeTRT

    result = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
    if result.feasible:
        print(result.cost, result.allocation.task_ecu)

Every allocation the optimizer emits is re-checked by the independent
analysis of :mod:`repro.analysis.feasibility` (defence in depth: a bug in
the encoder or the SAT stack would surface as a verification failure, not
as a silently wrong "optimal" answer).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.allocation import Allocation
from repro.analysis.feasibility import FeasibilityReport, check_allocation
from repro.core.api import SolveRequest, reject_legacy
from repro.core.config import EncoderConfig
from repro.core.encoder import ProblemEncoding
from repro.core.objectives import Objective
from repro.core.optimize import OptimizationOutcome, bin_search
from repro.model.architecture import Architecture
from repro.model.task import TaskSet
from repro.robust.budget import Budget, BudgetExpired
from repro.robust.checkpoint import SearchCheckpoint

__all__ = ["Allocator", "AllocationResult"]


def _governor_recorder(request: SolveRequest):
    """The governor's flight-recorder hook for this request (or None)."""
    if request.governor is None or not request.flight_log:
        return None
    from repro.robust.flight import FlightRecorder

    return FlightRecorder(request.flight_log, actor="governor").log


@dataclass
class AllocationResult:
    """Outcome of an allocation run."""

    feasible: bool
    cost: int | None
    allocation: Allocation | None
    outcome: OptimizationOutcome | None
    formula_size: dict = field(default_factory=dict)
    solver_stats: dict = field(default_factory=dict)
    verification: FeasibilityReport | None = None
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: Cross-layer encoding instrumentation (see
    #: :class:`repro.arith.stats.EncodeStats`), JSON-ready.
    encode_stats: dict = field(default_factory=dict)
    #: Per-probe certification verdicts (a
    #: :class:`repro.certify.CertifiedResult`) when the run was made with
    #: ``certify=True``; None otherwise.
    certificate: object | None = None

    @property
    def verified(self) -> bool:
        """True when the independent analysis confirmed the allocation."""
        return bool(self.verification and self.verification.schedulable)

    @property
    def proven(self) -> bool:
        """True when ``cost`` is a certified optimum (or infeasibility is
        certified) -- False for anytime upper bounds from an interrupted
        search."""
        return self.outcome.proven if self.outcome is not None else False

    @property
    def status(self) -> str:
        """``optimal`` / ``upper_bound`` / ``infeasible`` / ``unknown``."""
        return self.outcome.status if self.outcome is not None else "unknown"

    @property
    def certified(self) -> bool:
        """True when the run was certified and every answered probe's
        certificate checked out."""
        return bool(
            self.certificate is not None and self.certificate.all_verified
        )


class Allocator:
    """SAT-based optimal task/message allocator (the paper's method)."""

    def __init__(
        self,
        tasks: TaskSet,
        arch: Architecture,
        config: EncoderConfig | None = None,
    ):
        self.tasks = tasks
        self.arch = arch
        self.config = config or EncoderConfig()

    def _encode(self, objective: Objective | None):
        t0 = time.perf_counter()
        enc = ProblemEncoding(self.tasks, self.arch, self.config)
        cost_var = None
        lo = hi = 0
        if objective is not None:
            expr, lo, hi = objective.build(enc)
            cost_var = enc.solver.int_var("$cost", lo, hi)
            enc.solver.require(cost_var == expr)
        return enc, cost_var, lo, hi, time.perf_counter() - t0

    def minimize(
        self,
        objective: Objective | SolveRequest | None = None,
        request: SolveRequest | None = None,
        **legacy,
    ) -> AllocationResult:
        """Find the cost-minimal feasible allocation.

        Calling convention: pass a :class:`~repro.core.api.SolveRequest`
        (positionally or as ``request=``), optionally with a bare
        objective: ``minimize(MinimizeTRT("ring"))``.  The PR 4 legacy
        kwargs (``time_limit=``, ``budget=``, ...) are gone; passing one
        raises :class:`TypeError` with a migration hint.

        ``request.certify`` makes every probe return a checkable
        artifact (see :mod:`repro.certify`): UNSAT answers log a
        DRUP-style proof replayed by an independent checker, SAT answers
        are audited against the analysis; verdicts land on
        ``result.certificate``.

        ``request.reuse_learned=False`` (strategy ``rebuild``) rebuilds
        the encoding from scratch for every binary-search probe (the
        paper's pre-section-7 baseline; used by the clause-reuse
        ablation benchmark).

        ``request.budget`` bounds the whole search (wall time /
        conflicts / decisions) and can interrupt a probe mid-search; the
        result then carries the best anytime bound with ``proven`` False
        instead of hanging.  ``request.checkpoint`` (a
        :class:`SearchCheckpoint` or a file path) persists the
        binary-search state after every probe and resumes from it when
        it already holds state; a resumed run reaches the same certified
        optimum as an uninterrupted one.

        ``request.bounds`` providers are resolved and audited before the
        search (:func:`repro.bounds.providers.resolve_bounds`); audited
        bounds seed the interval, unaudited ones reorder probes, and the
        certified answer is bit-identical either way.
        """
        if isinstance(objective, SolveRequest):
            if request is not None:
                raise TypeError(
                    "pass the SolveRequest positionally or as request=, "
                    "not both"
                )
            request, objective = objective, None
        reject_legacy("Allocator.minimize", legacy)
        request = request if request is not None else SolveRequest()
        if objective is not None:
            request = request.merged(objective=objective)
        objective = request.objective
        if objective is None:
            raise TypeError("Allocator.minimize requires an objective")
        from repro.chaos import active
        from repro.governor import governed

        with active(request.chaos), governed(
            request.governor, recorder=_governor_recorder(request)
        ) as gov:
            if gov is not None and request.budget is not None:
                gov.register_budget(request.budget)
            res = self._dispatch_minimize(objective, request)
            if gov is not None:
                res.solver_stats = dict(res.solver_stats or {})
                res.solver_stats["governor"] = gov.stats_dict()
            return res

    def _dispatch_minimize(
        self, objective: Objective, request: SolveRequest
    ) -> AllocationResult:
        ckpt = self._as_checkpoint(request.checkpoint)
        if request.strategy == "rebuild" or not request.reuse_learned:
            return self._minimize_rebuild(
                objective, request.time_limit, request.verify,
                request.budget, request.certify,
            )
        proof_log = request.proof_log
        if proof_log is not None:
            from repro.certify.proofio import resolve_spool_path

            # Concurrent solves may share one --proof-log directory;
            # namespacing by request fingerprint (+ a per-process
            # sequence) keeps their spools from clobbering each
            # other (see docs/SERVING.md).
            proof_log = resolve_spool_path(
                proof_log, request.fingerprint()
            )
        return self._minimize_incremental(
            objective, request, ckpt, proof_log=proof_log,
        )

    @staticmethod
    def _as_checkpoint(
        checkpoint: SearchCheckpoint | str | None,
    ) -> SearchCheckpoint | None:
        if checkpoint is None or isinstance(checkpoint, SearchCheckpoint):
            return checkpoint
        import os

        if os.path.exists(checkpoint):
            return SearchCheckpoint.load(checkpoint)
        out = SearchCheckpoint()
        out.path = checkpoint
        return out

    def _minimize_incremental(
        self,
        objective: Objective,
        request: SolveRequest,
        checkpoint: SearchCheckpoint | None = None,
        proof_log: str | None = None,
    ) -> AllocationResult:
        time_limit = request.time_limit
        verify = request.verify
        budget = request.budget
        certify = request.certify
        from repro.bounds.providers import resolve_bounds

        rb, witness, bmeta = resolve_bounds(
            self.tasks, self.arch, objective, request
        )
        if certify:
            # Certified runs keep the final [R, R] probe so the
            # certificate carries a SAT audit of the served model.
            rb.model_loaded = False
        enc, cost_var, lo, hi, enc_secs = self._encode(objective)
        assert cost_var is not None
        certifier = None
        if certify:
            from repro.certify import ProbeCertifier

            spool = None
            spool_error: str | None = None
            if proof_log is not None:
                from repro.certify.proofio import ProofSpool

                # A fresh run owns its artifact: a damaged leftover from
                # a crashed predecessor is quarantined, never extended.
                try:
                    spool = ProofSpool(proof_log, fresh=True)
                except OSError as exc:
                    # An unwritable artifact condemns the certificate,
                    # not the solve: the in-memory checker still runs.
                    spool_error = f"cannot open proof artifact: {exc}"
            certifier = ProbeCertifier(
                self.tasks, self.arch, enc, objective, spool=spool
            )
            if spool_error is not None:
                certifier.result.proof_artifact = proof_log
                certifier.result.proof_artifact_ok = False
                certifier.result.proof_artifact_error = spool_error
            if bmeta.get("audits"):
                # The audits that let bounds shrink the interval become
                # part of the certificate, in resolution order (before
                # any probe certificate).
                from repro.certify import ProbeCertificate

                for a in bmeta["audits"]:
                    certifier.result.add(
                        ProbeCertificate(
                            index=len(certifier.result.probes),
                            kind="bounds",
                            ok=True,
                            detail=(
                                f"{a['provider']} {a['side']}: "
                                f"{a['detail']}"
                            ),
                        )
                    )
        # The audited witness stands in for the optimum's model until a
        # SAT probe finds one (any SAT probe overwrites it): if the
        # search closes at the witness's own cost, no model-loading
        # probe is needed at all.
        best: list[Allocation | None] = [witness]

        def snapshot() -> None:
            best[0] = enc.decode()

        on_checkpoint = None
        if checkpoint is not None:

            def on_checkpoint(c: SearchCheckpoint) -> None:
                # Persist the best allocation alongside [L, R] so even a
                # twice-interrupted run can hand back a usable result.
                if best[0] is not None:
                    from repro.io import allocation_to_dict

                    c.payload = allocation_to_dict(best[0])

        outcome = bin_search(
            enc.solver, cost_var, lo, hi, on_sat=snapshot,
            time_limit=time_limit, budget=budget,
            checkpoint=checkpoint, on_checkpoint=on_checkpoint,
            on_probe=certifier.on_probe if certifier is not None else None,
            bounds=rb if bmeta.get("providers") else None,
        )
        if bmeta.get("providers"):
            outcome.bounds.setdefault("mode", bmeta["mode"])
            outcome.bounds["providers"] = bmeta["providers"]
            if bmeta.get("notes"):
                outcome.bounds["notes"] = bmeta["notes"]
            outcome.bounds["bounds_hits"] = outcome.bounds_hits
        if best[0] is None and checkpoint is not None and checkpoint.payload:
            from repro.io import allocation_from_dict

            best[0] = allocation_from_dict(checkpoint.payload)
        certificate = certifier.finalize() if certifier is not None else None
        return self._finish(
            enc, outcome, best[0], enc_secs, verify, certificate
        )

    def _minimize_rebuild(
        self,
        objective: Objective,
        time_limit: float | None,
        verify: bool,
        budget: Budget | None = None,
        certify: bool = False,
    ) -> AllocationResult:
        """BIN_SEARCH with a fresh solver per probe (no clause reuse).

        One ``budget`` spans all probes (each fresh solver charges the
        same pool), so the rebuild strategy honors the same end-to-end
        bound as the incremental one.  With ``certify=True`` every fresh
        solver logs its own self-contained proof, checked right after the
        probe answers (UNSAT probes here run without assumptions, so
        their proof must derive the empty clause outright).
        """
        from repro.core.optimize import OptimizationOutcome, ProbeLog

        certificate = None
        if certify:
            from repro.certify import CertifiedResult

            certificate = CertifiedResult()

        t0 = time.perf_counter()
        enc, cost_var, lo, hi, enc_secs = self._encode(objective)
        outcome = OptimizationOutcome(feasible=False, optimum=None,
                                      proven=False)
        best: Allocation | None = None
        last_enc = enc

        def probe(lo_b: int | None, hi_b: int | None):
            nonlocal best, last_enc, enc_secs
            if lo_b is None and hi_b is None:
                probe_enc, pcost = enc, cost_var
            else:
                probe_enc, pcost, _, _, secs = self._encode(objective)
                enc_secs += secs
                if lo_b is not None and lo_b > lo:
                    probe_enc.solver.require(pcost >= lo_b)
                if hi_b is not None:
                    probe_enc.solver.require(pcost <= hi_b)
            last_enc = probe_enc
            if certificate is not None:
                probe_enc.solver.sat.start_proof()
            p0 = time.perf_counter()
            try:
                sat = probe_enc.solver.solve(budget=budget)
            except BudgetExpired as exc:
                outcome.probes.append(
                    ProbeLog(
                        lo=lo_b if lo_b is not None else lo,
                        hi=hi_b if hi_b is not None else hi,
                        sat=False,
                        cost=None,
                        seconds=time.perf_counter() - p0,
                        conflicts=probe_enc.solver.stats.conflicts,
                        decisions=probe_enc.solver.stats.decisions,
                        interrupted=True,
                    )
                )
                outcome.interrupted = True
                outcome.interrupt_reason = str(exc)
                if certificate is not None:
                    from repro.certify import ProbeCertificate

                    certificate.add(
                        ProbeCertificate(
                            index=len(certificate.probes),
                            kind="skipped",
                            ok=True,
                        )
                    )
                raise
            secs = time.perf_counter() - p0
            cost = probe_enc.solver.value(pcost) if sat else None
            outcome.probes.append(
                ProbeLog(
                    lo=lo_b if lo_b is not None else lo,
                    hi=hi_b if hi_b is not None else hi,
                    sat=sat,
                    cost=cost,
                    seconds=secs,
                    conflicts=probe_enc.solver.stats.conflicts,
                    decisions=probe_enc.solver.stats.decisions,
                )
            )
            if sat:
                best = probe_enc.decode()
            if certificate is not None:
                from repro.certify import (
                    certify_sat_probe,
                    certify_unsat_probe,
                )

                index = len(certificate.probes)
                if sat:
                    certificate.add(
                        certify_sat_probe(
                            self.tasks, self.arch, probe_enc, objective,
                            claimed_cost=cost, index=index,
                        )
                    )
                else:
                    cert, lines = certify_unsat_probe(probe_enc, index)
                    certificate.add(cert)
                    certificate.proof_lines += lines
            return sat, cost

        try:
            sat, cost = probe(None, None)
        except BudgetExpired:
            outcome.seconds = time.perf_counter() - t0
            return self._finish(
                last_enc, outcome, best, enc_secs, verify, certificate
            )
        if sat:
            outcome.feasible = True
            assert cost is not None
            left, right = lo, cost
            while left < right:
                if (
                    time_limit is not None
                    and time.perf_counter() - t0 > time_limit
                ):
                    outcome.interrupted = True
                    outcome.interrupt_reason = (
                        f"time limit ({time_limit:g}s) expired"
                    )
                    break
                mid = (left + right) // 2
                try:
                    sat, cost = probe(left, mid)
                except BudgetExpired:
                    break
                if not sat:
                    left = mid + 1
                else:
                    assert cost is not None
                    right = cost
            outcome.optimum = right
            outcome.proven = left >= right
        else:
            outcome.proven = True  # certified infeasibility
        outcome.seconds = time.perf_counter() - t0
        return self._finish(
            last_enc, outcome, best, enc_secs, verify, certificate
        )

    def find_feasible(
        self,
        request: SolveRequest | None = None,
        **legacy,
    ) -> AllocationResult:
        """One SOLVE call: any allocation satisfying all constraints.

        Accepts a :class:`~repro.core.api.SolveRequest` (positionally or
        as ``request=``).  The PR 4 legacy kwargs (``verify=``,
        ``budget=``, ``certify=``) are gone; passing one raises
        :class:`TypeError` with a migration hint.
        """
        reject_legacy("Allocator.find_feasible", legacy)
        request = request if request is not None else SolveRequest()
        from repro.chaos import active
        from repro.governor import governed

        with active(request.chaos), governed(
            request.governor, recorder=_governor_recorder(request)
        ) as gov:
            if gov is not None and request.budget is not None:
                gov.register_budget(request.budget)
            res = self._find_feasible(request)
            if gov is not None:
                res.solver_stats = dict(res.solver_stats or {})
                res.solver_stats["governor"] = gov.stats_dict()
            return res

    def _find_feasible(self, request: SolveRequest) -> AllocationResult:
        verify = request.verify
        budget = request.budget
        certify = request.certify
        enc, _, _, _, enc_secs = self._encode(None)
        certificate = None
        if certify:
            from repro.certify import CertifiedResult

            certificate = CertifiedResult()
            enc.solver.sat.start_proof()
        t0 = time.perf_counter()
        try:
            sat = enc.solver.solve(budget=budget)
        except BudgetExpired as exc:
            outcome = OptimizationOutcome(
                feasible=False, optimum=None, proven=False,
                interrupted=True, interrupt_reason=str(exc),
            )
            outcome.seconds = time.perf_counter() - t0
            if certificate is not None:
                from repro.certify import ProbeCertificate

                certificate.add(
                    ProbeCertificate(index=0, kind="skipped", ok=True)
                )
            return self._finish(
                enc, outcome, None, enc_secs, verify, certificate
            )
        outcome = OptimizationOutcome(feasible=sat, optimum=None)
        outcome.seconds = time.perf_counter() - t0
        alloc = enc.decode() if sat else None
        if certificate is not None:
            from repro.certify import certify_sat_probe, certify_unsat_probe

            if sat:
                certificate.add(
                    certify_sat_probe(self.tasks, self.arch, enc)
                )
            else:
                cert, lines = certify_unsat_probe(enc)
                certificate.add(cert)
                certificate.proof_lines += lines
        return self._finish(enc, outcome, alloc, enc_secs, verify, certificate)

    def _finish(
        self,
        enc: ProblemEncoding,
        outcome: OptimizationOutcome,
        alloc: Allocation | None,
        enc_secs: float,
        verify: bool,
        certificate=None,
    ) -> AllocationResult:
        report = None
        if verify and alloc is not None:
            report = check_allocation(self.tasks, self.arch, alloc)
        return AllocationResult(
            feasible=outcome.feasible,
            cost=outcome.optimum,
            allocation=alloc,
            outcome=outcome,
            formula_size=enc.formula_size(),
            solver_stats=enc.solver.stats.snapshot(),
            verification=report,
            encode_seconds=enc_secs,
            solve_seconds=outcome.seconds,
            encode_stats=enc.encode_stats(),
            certificate=certificate,
        )
