"""The unified solve API: one request object, one report, one exit-code map.

:class:`SolveRequest` is the single carrier for all solve options; every
public entry point -- ``Allocator.minimize``/``find_feasible``,
``SolveSupervisor`` and :func:`solve` -- accepts one (``request=``) and
nothing else, so an unknown keyword is Python's own :class:`TypeError`.
The CLI builds a request from argv and runs it through :func:`solve`,
the one router between the supervised escalation chain and the direct
:class:`~repro.core.allocator.Allocator`, so library and command line
cannot drift apart.

Interval hints go through :attr:`SolveRequest.bounds` providers.  There
is one binary search (:func:`repro.core.optimize.bin_search`); its probe
mode is the one field :attr:`SolveRequest.reuse_learned` (guarded probes
on one solver, or a fresh encoding per probe -- the paper's §7
baseline), and both modes honour bounds, budgets and checkpoints.

:class:`BoundsProvider` / :class:`BoundsReport` are the one sanctioned
channel for search-interval hints: warm caches, heuristic baselines and
the relaxation sidecar (:mod:`repro.bounds`) all propose bounds through
it, the allocator audits every proposal (witnesses via the independent
analysis, lower bounds via :func:`repro.certify.bounds.
audit_lower_certificate`) and only audited bounds may shrink the binary
search's certified interval; everything else degrades to a probe-order
hint.  See ``docs/BOUNDS.md``.

:class:`SolveReport` is the matching result-side view: a uniform
status/cost/exit-code summary over :class:`~repro.core.allocator.
AllocationResult` and :class:`~repro.robust.supervisor.SupervisedResult`.

:class:`ExitCode` normalizes the CLI process exit codes (previously
scattered literals)::

    0  OK                   answer produced (optimal / bound / feasible)
    1  ERROR                usage or internal error
    2  INFEASIBLE           certified infeasibility (solve/check/diagnose)
    3  CERTIFICATE_FAILED   --certify was asked and a certificate failed
    4  BUDGET_EXHAUSTED     budget/limits expired before anything usable
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum

__all__ = [
    "ExitCode",
    "BoundsReport",
    "BoundsProvider",
    "SolveRequest",
    "SolveReport",
    "solve",
]


#: Accepted :attr:`SolveRequest.bounds_mode` values.
_BOUNDS_MODES = ("auto", "off")


class ExitCode(IntEnum):
    """Normalized CLI exit codes (see module docstring)."""

    OK = 0
    ERROR = 1
    INFEASIBLE = 2
    CERTIFICATE_FAILED = 3
    BUDGET_EXHAUSTED = 4


@dataclass
class BoundsReport:
    """One provider's proposal for the cost-search interval.

    Nothing in a report is trusted as stated: the allocator re-audits
    every claim before it may narrow the certified search interval
    (:func:`repro.bounds.providers.resolve_bounds`).

    - ``upper`` with a ``witness`` (a JSON allocation payload,
      :func:`repro.io.allocation_to_dict`): the witness is re-checked by
      the *independent* analysis; when it passes, its recomputed cost --
      not the claimed ``upper`` -- becomes a known-achievable upper
      bound.  Without a witness (or when the audit fails) ``upper`` is
      only a probe-order hint.
    - ``lower`` with a ``certificate`` (:class:`repro.certify.bounds.
      BoundCertificate`): the certificate's arithmetic is recomputed
      from the model by :func:`repro.certify.bounds.
      audit_lower_certificate`; a passing audit makes ``lower`` a
      certified floor, a failing one demotes it to a hint.  A ``lower``
      without certificate is always just a hint.
    """

    #: Human-readable provider name for provenance / stats.
    provider: str = "bounds"
    #: Claimed lower bound on the optimum (certified only via audit).
    lower: int | None = None
    #: Claimed achievable cost (trusted only via witness audit).
    upper: int | None = None
    #: JSON allocation payload achieving ``upper`` (or None).
    witness: dict | None = None
    #: Machine-checkable certificate for ``lower`` (or None).
    certificate: object | None = None
    #: False when ``upper`` came from a non-unique cost encoding
    #: (``sum_resp``: the audit proves only an upper bound, see
    #: :func:`repro.certify.audit.independent_cost`); such a report must
    #: never be promoted to a trusted *lower* bound.
    exact: bool = True
    #: Wall time the provider spent (filled by the resolver when 0).
    seconds: float = 0.0


class BoundsProvider:
    """Protocol for search-interval providers (duck-typed).

    Implementations return a :class:`BoundsReport` -- or None when they
    have nothing to offer -- given the system and the request.  They
    must never touch SAT-solver state: bounds are audited against the
    model only, and a provider crash is treated as "no proposal".
    Providers ride on :attr:`SolveRequest.bounds`.
    """

    name = "bounds"

    def propose(self, tasks, arch, request) -> "BoundsReport | None":
        raise NotImplementedError


@dataclass(frozen=True)
class SolveRequest:
    """Everything one allocation solve may be asked to do.

    The request is immutable (``frozen``); derive variants with
    :meth:`merged` or :func:`dataclasses.replace`.  All fields have
    defaults, so ``SolveRequest(objective=MinimizeSumTRT())`` is a
    complete request.
    """

    #: Cost function (:mod:`repro.core.objectives`); None = feasibility.
    objective: object | None = None
    #: :class:`repro.core.config.EncoderConfig`; None = defaults.
    config: object | None = None
    #: Anytime wall-clock limit, checked between probes.
    time_limit: float | None = None
    #: The probe mode of the one binary search: True keeps learnt
    #: clauses between guarded probes on one solver (the paper's
    #: section-7 reuse); False runs every probe after the first on a
    #: fresh encoding (the §7 baseline).  Both honour bounds, budgets
    #: and checkpoints; False rejects ``proof_log``.
    reuse_learned: bool = True
    #: :class:`repro.robust.Budget` bounding the whole search.
    budget: object | None = None
    #: :class:`repro.robust.SearchCheckpoint` (or path) to persist/resume.
    checkpoint: object | None = None
    #: Certify every probe (DRUP proof check / witness audit).
    certify: bool = False
    #: Heuristic fallback chain a supervised solve tries, in order,
    #: when its exact stages produce nothing usable
    #: (:func:`repro.baselines.run_heuristic` names).
    heuristics: tuple = ("greedy", "annealing")
    #: :class:`repro.chaos.ChaosSchedule` of deterministic fault
    #: injection; None = off.
    chaos: object | None = None
    #: Persist the certifier's DRUP proof to this path as crash-safe
    #: length-prefixed records (:mod:`repro.certify.proofio`); implies
    #: nothing unless ``certify`` is set.  Requires ``reuse_learned``:
    #: one spool cannot hold the separate proofs of several fresh
    #: encodings as one checkable proof.  A *directory* path (existing,
    #: or ending in the path separator) namespaces the spool file by
    #: request fingerprint, so concurrent solves sharing one proof
    #: directory never collide.
    proof_log: str | None = None
    #: Bounds providers consulted before the binary search starts: each
    #: :class:`BoundsProvider` proposes an interval, the allocator
    #: audits every proposal, and the tightest *audited* bounds seed
    #: ``bin_search`` (unaudited ones degrade to probe-order hints).
    #: Bounds never change the certified answer -- only the probe
    #: sequence -- so like the old warm hints they are excluded from
    #: :meth:`fingerprint`.
    bounds: tuple = ()
    #: How the providers run: ``"auto"`` resolves them synchronously
    #: before the search; ``"off"`` ignores all providers.
    bounds_mode: str = "auto"
    #: :class:`repro.governor.GovernorConfig` of resource limits (disk
    #: quota over the run's state files, memory watermark with graduated
    #: degradation); picklable, installed for the duration of the solve.
    #: None = ungoverned.  Like ``chaos``, excluded from
    #: :meth:`fingerprint` -- governance changes how a run degrades,
    #: never its answer.
    governor: object | None = None
    #: Append lifecycle events (supervisor stage transitions, with
    #: timestamps and reasons) to this JSONL flight-recorder log
    #: (:class:`repro.robust.flight.FlightRecorder`); None = off.
    flight_log: str | None = None

    def __post_init__(self) -> None:
        from repro.baselines.heuristics import HEURISTICS

        if self.bounds_mode not in _BOUNDS_MODES:
            raise ValueError(
                f"SolveRequest.bounds_mode must be one of "
                f"{', '.join(_BOUNDS_MODES)}; got {self.bounds_mode!r}"
            )
        for name in self.heuristics:
            if name not in HEURISTICS:
                raise ValueError(
                    f"SolveRequest.heuristics names must be among "
                    f"{', '.join(HEURISTICS)}; got {name!r}"
                )
        if self.proof_log is not None and not self.reuse_learned:
            raise ValueError(
                "SolveRequest.proof_log needs reuse_learned=True: the "
                "fresh-encoding probe mode checks a separate proof per "
                "probe, which one spool cannot hold as one proof"
            )

    def merged(self, **updates) -> "SolveRequest":
        """A copy with ``updates`` applied."""
        return replace(self, **updates)

    def fingerprint(self) -> str:
        """Content address of the *answer-relevant* solve options.

        The experiment fabric keys sweep cells on this (see
        :func:`repro.fabric.jobs.job_key`), so only fields that can
        change the reported answer participate: the objective (type and
        parameters), the encoder configuration, the limits that decide
        how far the search may run, and ``certify``.  The probe mode
        (``reuse_learned``) is excluded on purpose -- guarded probes on
        one solver and fresh encodings per probe run the same binary
        search to the same certified optimum -- as are the fallback
        chain (``heuristics``), persistence, fault-injection and
        resource-governance knobs (``checkpoint``, ``proof_log``,
        ``chaos``, ``governor``) and the serving hints (``bounds``,
        ``bounds_mode``, ``flight_log``), which never change a certified
        answer, only how it survives or how fast it arrives.
        """
        import hashlib

        from repro.robust.checkpoint import canonical_blob

        def public_vars(obj) -> dict:
            return {k: v for k, v in vars(obj).items()
                    if not k.startswith("_")}

        objective = None
        if self.objective is not None:
            objective = {"kind": type(self.objective).__name__,
                         **public_vars(self.objective)}
        config = None
        if self.config is not None:
            config = {"kind": type(self.config).__name__,
                      **public_vars(self.config)}
        budget = None
        if self.budget is not None:
            budget = {k: v for k, v in public_vars(self.budget).items()
                      if isinstance(v, (int, float, str, bool, type(None)))}
        blob = canonical_blob({
            "objective": objective,
            "config": config,
            "time_limit": self.time_limit,
            "budget": budget,
            "certify": self.certify,
        })
        return hashlib.sha256(b"REPRO-REQ v1\x00" + blob).hexdigest()[:16]


@dataclass
class SolveReport:
    """Uniform result-side view over the solve entry points."""

    #: ``optimal`` / ``upper_bound`` / ``feasible`` / ``heuristic`` /
    #: ``infeasible`` / ``unknown``.
    status: str
    feasible: bool = False
    cost: int | None = None
    proven: bool = False
    allocation: object | None = None
    certificate: object | None = None
    #: The underlying AllocationResult / SupervisedResult.
    result: object | None = None
    #: Stage log of a supervised solve (empty otherwise).
    stages: list = field(default_factory=list)
    #: Bounds provenance of the search (providers consulted, audited
    #: interval, probes the bounds injected); empty when no provider
    #: ran.  Mirrors ``OptimizationOutcome.bounds``.
    bounds: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> ExitCode:
        """The normalized CLI exit code for this outcome."""
        if self.certificate is not None and not self.certificate.all_verified:
            return ExitCode.CERTIFICATE_FAILED
        if self.status == "infeasible":
            return ExitCode.INFEASIBLE
        if self.status == "unknown":
            return ExitCode.BUDGET_EXHAUSTED
        return ExitCode.OK

    @classmethod
    def from_allocation(cls, res, request=None) -> "SolveReport":
        """Summarize an :class:`~repro.core.allocator.AllocationResult`."""
        status = res.status
        if status == "optimal" and getattr(request, "objective", 1) is None:
            status = "feasible"
        outcome = getattr(res, "outcome", None)
        return cls(
            status=status,
            feasible=res.feasible,
            cost=res.cost,
            proven=res.proven,
            allocation=res.allocation,
            certificate=res.certificate,
            result=res,
            bounds=dict(getattr(outcome, "bounds", None) or {}),
        )

    @classmethod
    def from_supervised(cls, sup) -> "SolveReport":
        """Summarize a :class:`~repro.robust.supervisor.SupervisedResult`."""
        inner = sup.result
        outcome = getattr(inner, "outcome", None)
        return cls(
            status=sup.status,
            feasible=sup.allocation is not None,
            cost=sup.cost,
            proven=sup.proven,
            allocation=sup.allocation,
            certificate=getattr(inner, "certificate", None),
            result=sup,
            stages=list(sup.stages),
            bounds=dict(getattr(outcome, "bounds", None) or {}),
        )


def solve(tasks, arch, request: SolveRequest) -> SolveReport:
    """One-call solve honoring every :class:`SolveRequest` option.

    The one router of the library and the CLI: a feasibility-only
    request runs one SOLVE; an objective with a budget runs the
    supervised escalation chain (graceful degradation); any other
    objective goes straight to :meth:`~repro.core.allocator.Allocator.
    minimize`.
    """
    from repro.core.allocator import Allocator

    if request.objective is None:
        res = Allocator(tasks, arch, request.config).find_feasible(
            request=request
        )
        return SolveReport.from_allocation(res, request)
    if request.budget is not None:
        from repro.robust.supervisor import SolveSupervisor

        sup = SolveSupervisor(tasks, arch, request=request).solve()
        return SolveReport.from_supervised(sup)
    res = Allocator(tasks, arch, request.config).minimize(request=request)
    return SolveReport.from_allocation(res, request)
