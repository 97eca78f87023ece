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
from repro.core.api import SolveRequest
from repro.core.config import EncoderConfig
from repro.core.encoder import ProblemEncoding
from repro.core.objectives import Objective
from repro.core.optimize import OptimizationOutcome, ProbeLog, bin_search
from repro.model.architecture import Architecture
from repro.model.task import TaskSet
from repro.robust.budget import BudgetExpired
from repro.robust.checkpoint import SearchCheckpoint

__all__ = ["Allocator", "AllocationResult"]


def _governed(request: SolveRequest, solve) -> "AllocationResult":
    """``solve()`` under the request's chaos schedule and governor; the
    governor's stats land in the result's ``solver_stats``."""
    from repro.chaos import active
    from repro.governor import governed

    recorder = None
    if request.governor is not None and request.flight_log:
        from repro.robust.flight import FlightRecorder

        recorder = FlightRecorder(request.flight_log, actor="governor").log
    with active(request.chaos), governed(
        request.governor, recorder=recorder
    ) as gov:
        if gov is not None and request.budget is not None:
            gov.register_budget(request.budget)
        res = solve()
        if gov is not None:
            res.solver_stats = dict(res.solver_stats or {})
            res.solver_stats["governor"] = gov.stats_dict()
        return res


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

    def _encode(self, objective: Objective | None, slot=None,
                shape: str | None = None):
        """Encode the system and the objective's ``$cost``.

        With a :class:`repro.core.template.TemplateSlot` (and the
        system's ``shape``) the encoding is parametric: the slot's
        template is replayed when its shape matches, otherwise a fresh
        parameter-mode encoding is recorded into the slot; either way
        the WCETs are fixed last."""
        t0 = time.perf_counter()
        if slot is None:
            enc = ProblemEncoding(self.tasks, self.arch, self.config)
            cost_var = None
            lo = hi = 0
            if objective is not None:
                cost_var, lo, hi = self._cost(enc, objective)
            return enc, cost_var, lo, hi, time.perf_counter() - t0
        template = slot.template
        if template is not None and template.shape != shape:
            template = slot.template = None
        enc = ProblemEncoding(self.tasks, self.arch, self.config,
                              template=template, parametric=True)
        if template is None:
            enc.cost = self._cost(enc, objective)
            slot.template = enc.capture(shape)
        enc.fix_wcets()
        cost_var, lo, hi = enc.cost
        return enc, cost_var, lo, hi, time.perf_counter() - t0

    @staticmethod
    def _cost(enc: ProblemEncoding, objective: Objective) -> tuple:
        """Encode ``$cost == objective``; returns ``(var, lo, hi)``."""
        expr, lo, hi = objective.build(enc)
        cost_var = enc.solver.int_var("$cost", lo, hi)
        enc.solver.require(cost_var == expr)
        return cost_var, lo, hi

    def minimize(
        self,
        objective: Objective | SolveRequest | None = None,
        request: SolveRequest | None = None,
    ) -> AllocationResult:
        """Find the cost-minimal feasible allocation.

        Calling convention: pass a :class:`~repro.core.api.SolveRequest`
        (positionally or as ``request=``), optionally with a bare
        objective: ``minimize(MinimizeTRT("ring"))``.

        ``request.certify`` makes every probe return a checkable
        artifact (see :mod:`repro.certify`): UNSAT answers log a
        DRUP-style proof replayed by an independent checker, SAT answers
        are audited against the analysis; verdicts land on
        ``result.certificate``.

        ``request.reuse_learned=False`` runs every binary-search probe
        after the first on a fresh encoding (the paper's pre-section-7
        baseline; used by the clause-reuse ablation benchmark).  It is
        the same :func:`~repro.core.optimize.bin_search` with the same
        bounds, checkpoints and budgets; only ``proof_log`` is rejected
        (one spool cannot hold several fresh proofs as one proof).

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

        ``request.template`` (a :class:`repro.core.template.
        TemplateSlot`) encodes in parameter mode: a fitting template is
        replayed instead of encoding, and the slot receives the template
        that fits this system.
        """
        if isinstance(objective, SolveRequest):
            if request is not None:
                raise TypeError(
                    "pass the SolveRequest positionally or as request=, "
                    "not both"
                )
            request, objective = objective, None
        request = request if request is not None else SolveRequest()
        if objective is not None:
            request = request.merged(objective=objective)
        objective = request.objective
        if objective is None:
            raise TypeError("Allocator.minimize requires an objective")
        return _governed(request, lambda: self._minimize(objective, request))

    def _minimize(
        self, objective: Objective, request: SolveRequest
    ) -> AllocationResult:
        certify = request.certify
        checkpoint = request.checkpoint
        if checkpoint is not None and not isinstance(
                checkpoint, SearchCheckpoint):
            checkpoint = SearchCheckpoint.resume(checkpoint)
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
        from repro.bounds.providers import resolve_bounds

        rb, witness, bmeta = resolve_bounds(
            self.tasks, self.arch, objective, request
        )
        if certify:
            # Certified runs keep the final [R, R] probe so the
            # certificate carries a SAT audit of the served model.
            rb.model_loaded = False
        slot = request.template
        shape = None
        if slot is not None:
            from repro.core.template import template_shape

            shape = template_shape(self.tasks, self.arch, objective,
                                   self.config)
        enc, cost_var, lo, hi, enc_secs = self._encode(objective, slot,
                                                       shape)
        assert cost_var is not None
        # The encoding the latest probe ran on, and the encode time of
        # every encoding built so far.
        current = [enc]
        encode_total = [enc_secs]
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
            best[0] = current[0].decode()

        fresh = None
        if not request.reuse_learned:

            def fresh():
                # The paper's section-7 baseline: a new encoding per
                # probe, so nothing learnt carries over.
                probe_enc, probe_cost, _, _, secs = self._encode(
                    objective, slot, shape)
                current[0] = probe_enc
                encode_total[0] += secs
                if certifier is not None:
                    certifier.reset(probe_enc)
                return probe_enc.solver, probe_cost

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
            time_limit=request.time_limit, budget=request.budget,
            checkpoint=checkpoint, on_checkpoint=on_checkpoint,
            on_probe=certifier.on_probe if certifier is not None else None,
            bounds=rb if bmeta.get("providers") else None,
            fresh=fresh,
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
            current[0], outcome, best[0], encode_total[0], certificate
        )

    def find_feasible(
        self, request: SolveRequest | None = None
    ) -> AllocationResult:
        """One SOLVE call: any allocation satisfying all constraints,
        under a :class:`~repro.core.api.SolveRequest` (positionally or
        as ``request=``)."""
        request = request if request is not None else SolveRequest()
        return _governed(request, lambda: self._find_feasible(request))

    def _find_feasible(self, request: SolveRequest) -> AllocationResult:
        enc, _, _, _, enc_secs = self._encode(None)
        certifier = None
        if request.certify:
            from repro.certify import ProbeCertifier

            certifier = ProbeCertifier(self.tasks, self.arch, enc, None)
        t0 = time.perf_counter()
        reason = None
        try:
            sat = enc.solver.solve(budget=request.budget)
        except BudgetExpired as exc:
            sat, reason = False, str(exc)
        outcome = OptimizationOutcome(
            feasible=sat, optimum=None, proven=reason is None,
            interrupted=reason is not None, interrupt_reason=reason,
            seconds=time.perf_counter() - t0,
        )
        alloc = enc.decode() if sat else None
        certificate = None
        if certifier is not None:
            # The single SOLVE is one unguarded probe.
            certifier.on_probe(
                ProbeLog(lo=0, hi=0, sat=sat, cost=None,
                         seconds=outcome.seconds,
                         conflicts=enc.solver.stats.conflicts,
                         decisions=enc.solver.stats.decisions,
                         interrupted=reason is not None),
                None,
            )
            certificate = certifier.finalize()
        return self._finish(enc, outcome, alloc, enc_secs, certificate)

    def _finish(
        self,
        enc: ProblemEncoding,
        outcome: OptimizationOutcome,
        alloc: Allocation | None,
        enc_secs: float,
        certificate=None,
    ) -> AllocationResult:
        report = None
        if alloc is not None:
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
