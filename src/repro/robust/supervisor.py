"""Graceful degradation: an escalation chain that always answers.

``SolveSupervisor`` runs the exact optimizer under supervision and, when
it cannot deliver a certified optimum, degrades through a fixed chain
instead of hanging or crashing::

    incremental BIN_SEARCH  --crash-->  rebuild BIN_SEARCH
           |  budget expired with a model        |  crash / unknown
           v                                     v
    anytime upper bound (honest)        heuristic bound (baselines/)

Every stage is recorded in :class:`StageReport`; the final
:class:`SupervisedResult.status` is always honest about what the returned
allocation *is*:

- ``optimal``      -- certified optimum from an exact stage,
- ``upper_bound``  -- feasible allocation whose cost is an anytime bound
  (budget expired mid-search),
- ``heuristic``    -- allocation from a baseline heuristic (exact stages
  produced nothing usable),
- ``infeasible``   -- an exact stage *certified* unsatisfiability,
- ``unknown``      -- nothing usable and no certificate either.

The supervisor never raises for solver-side failures: a production
caller always gets a usable allocation when one is obtainable, plus the
stage log to understand what happened.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.robust.budget import Budget

if TYPE_CHECKING:  # annotation-only: see the lazy import in __init__
    from repro.core.api import SolveRequest

__all__ = ["StageReport", "SupervisedResult", "SolveSupervisor"]

_UNSET = object()


@dataclass
class StageReport:
    """What one escalation stage did."""

    stage: str
    status: str  # optimal/upper_bound/infeasible/unknown/failed/skipped
    seconds: float = 0.0
    detail: str | None = None


@dataclass
class SupervisedResult:
    """Outcome of a supervised solve: always usable, always honest."""

    status: str
    cost: int | None = None
    allocation: object | None = None
    proven: bool = False
    #: AllocationResult of the last exact stage that produced one.
    result: object | None = None
    stages: list[StageReport] = field(default_factory=list)

    @property
    def usable(self) -> bool:
        """Whether :attr:`allocation` holds a deployable allocation."""
        return self.allocation is not None


class SolveSupervisor:
    """Supervise one allocation solve end-to-end.

    All options ride on the :class:`~repro.core.api.SolveRequest`
    (passed positionally or as ``request=``); :func:`repro.core.api.
    solve` runs a supervisor for every request with an objective and a
    budget.
    ``request.heuristics`` names the fallback chain tried (in order)
    when the exact stages produce no usable result; ``()`` turns the
    fallback off.  ``request.checkpoint`` is forwarded to the
    incremental stage, so an interrupted supervised run resumes too.
    """

    def __init__(
        self,
        tasks,
        arch,
        objective=_UNSET,
        request: SolveRequest | None = None,
    ):
        # Imported lazily: repro.sat pulls in repro.robust for Budget,
        # so a module-level repro.core import here would close an import
        # cycle (arith -> sat -> robust -> core -> arith).
        from repro.core.api import SolveRequest

        if isinstance(objective, SolveRequest):
            if request is not None:
                raise TypeError(
                    "pass the SolveRequest positionally or as request=, "
                    "not both"
                )
            request, objective = objective, _UNSET
        request = request if request is not None else SolveRequest()
        if objective is not _UNSET and objective is not None:
            request = request.merged(objective=objective)
        self.request = request
        self.tasks = tasks
        self.arch = arch
        self.objective = request.objective
        self.config = request.config
        self.budget: Budget | None = request.budget
        self.heuristics = tuple(request.heuristics)
        #: JSONL flight recorder for stage transitions (``None`` = off);
        #: every escalation step lands in the log with a timestamp and
        #: the reason, so a production operator can reconstruct *why* a
        #: solve degraded without re-running it.
        self.recorder = None
        if request.flight_log:
            from repro.robust.flight import FlightRecorder

            self.recorder = FlightRecorder(
                request.flight_log, actor="supervisor"
            )

    def _record(self, event: str, **extra) -> None:
        if self.recorder is not None:
            self.recorder.log(event, **extra)

    # ------------------------------------------------------------------

    def solve(self) -> SupervisedResult:
        from repro.chaos import active

        with active(self.request.chaos):
            return self._solve()

    def _solve(self) -> SupervisedResult:
        out = SupervisedResult(status="unknown")
        exact_chain = ["incremental", "rebuild"]
        self._record("solve.start", chain=exact_chain)
        for i, stage in enumerate(exact_chain):
            if i > 0 and self.budget is not None and self.budget.expired():
                out.stages.append(
                    StageReport(
                        stage, "skipped", detail="budget exhausted"
                    )
                )
                self._record("stage.skipped", stage=stage,
                             reason="budget exhausted")
                continue
            exact = self._exact_stage(out, stage)
            if exact is not None:
                self._record("solve.end", status=exact.status,
                             cost=exact.cost, proven=exact.proven)
                return exact
        out = self._heuristic_stages(out)
        self._record("solve.end", status=out.status,
                     cost=out.cost, proven=out.proven)
        return out

    # ------------------------------------------------------------------

    def _stage_request(self, stage: str) -> SolveRequest:
        """The per-stage :class:`SolveRequest` variant."""
        if stage == "incremental":
            return self.request
        # A fresh encoding per probe sidesteps incremental-solver state;
        # the incremental stage's checkpoint and proof spool stay its own.
        return self.request.merged(
            reuse_learned=False, checkpoint=None, proof_log=None,
        )

    def _exact_stage(
        self, out: SupervisedResult, stage: str
    ) -> SupervisedResult | None:
        """Run one exact stage.  Returns the finished result when the
        stage settled the problem (optimum, honest anytime bound, or a
        certificate of infeasibility); None to escalate."""
        from repro.chaos import chaos_point
        from repro.core.allocator import Allocator
        from repro.core.optimize import CheckpointMismatch

        t0 = time.perf_counter()
        self._record("stage.start", stage=stage)
        try:
            # Named fault site: an injected io-error here exercises the
            # "stage fails before solving anything" escalation path.
            chaos_point("supervisor.stage")
            res = Allocator(self.tasks, self.arch, self.config).minimize(
                request=self._stage_request(stage)
            )
        except CheckpointMismatch:
            raise  # the caller's checkpoint, not a stage fault
        except Exception as exc:  # noqa: BLE001 - supervision boundary
            out.stages.append(
                StageReport(
                    stage, "failed",
                    seconds=time.perf_counter() - t0,
                    detail=traceback.format_exc(),
                )
            )
            self._record("stage.end", stage=stage, status="failed",
                         seconds=round(time.perf_counter() - t0, 4),
                         reason=f"{type(exc).__name__}: {exc}")
            return None
        status = res.status
        reason = res.outcome.interrupt_reason if res.outcome else None
        out.stages.append(
            StageReport(
                stage, status,
                seconds=time.perf_counter() - t0,
                detail=reason,
            )
        )
        self._record("stage.end", stage=stage, status=status,
                     seconds=round(time.perf_counter() - t0, 4),
                     reason=reason)
        out.result = res
        if status == "unknown":
            return None  # escalate: no model, no certificate
        if status == "upper_bound" and res.allocation is None:
            return None  # bound without a usable model: escalate
        out.status = status
        out.cost = res.cost
        out.allocation = res.allocation
        out.proven = res.proven
        return out

    def _heuristic_stages(self, out: SupervisedResult) -> SupervisedResult:
        """Last resort: a cheap, bounded heuristic allocation with an
        honest ``heuristic`` status."""
        from repro.baselines.heuristics import run_heuristic
        from repro.core.objectives import objective_spec

        spec, medium = objective_spec(self.objective)
        for name in self.heuristics:
            t0 = time.perf_counter()
            self._record("stage.start", stage=f"heuristic:{name}")
            try:
                feasible, alloc, cost = run_heuristic(
                    name, self.tasks, self.arch, spec, medium
                )
            except Exception as exc:  # noqa: BLE001 - supervision boundary
                out.stages.append(
                    StageReport(
                        f"heuristic:{name}", "failed",
                        seconds=time.perf_counter() - t0,
                        detail=traceback.format_exc(),
                    )
                )
                self._record("stage.end", stage=f"heuristic:{name}",
                             status="failed",
                             seconds=round(time.perf_counter() - t0, 4),
                             reason=f"{type(exc).__name__}: {exc}")
                continue
            secs = time.perf_counter() - t0
            if not feasible or alloc is None:
                out.stages.append(
                    StageReport(f"heuristic:{name}", "unknown", seconds=secs)
                )
                self._record("stage.end", stage=f"heuristic:{name}",
                             status="unknown", seconds=round(secs, 4),
                             reason="no feasible allocation found")
                continue
            out.stages.append(
                StageReport(f"heuristic:{name}", "heuristic", seconds=secs)
            )
            self._record("stage.end", stage=f"heuristic:{name}",
                         status="heuristic", seconds=round(secs, 4),
                         reason=None)
            out.status = "heuristic"
            out.cost = cost
            out.allocation = alloc
            out.proven = False
            return out
        # Nothing anywhere: status stays "unknown" (or whatever an exact
        # stage certified before failing to produce a model).
        return out
