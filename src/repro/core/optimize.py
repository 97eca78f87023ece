"""SOLVE and BIN_SEARCH (paper section 5.2), with learnt-clause reuse.

The paper minimizes an integer cost variable ``i`` by binary search over
its range, issuing one satisfiability query per probe::

    BIN_SEARCH(phi):
        L := 0;  R := SOLVE(phi)
        while L < R:
            M := (L + R) div 2
            K := SOLVE(phi AND i >= L AND i <= M)
            if K = -1 then L := M else R := K

(The printed pseudocode loops forever when the probe ``[L, L]`` with
``R = L + 1`` is UNSAT -- ``L := M`` does not shrink the interval; we use
the obviously intended ``L := M + 1``.)

There is one BIN_SEARCH, :func:`bin_search`, with two probe modes:

- **incremental** (default): one persistent solver; each probe adds its
  bound constraints under a fresh *guard* literal and solves with that
  guard assumed.  All clauses the CDCL engine learns while refuting or
  satisfying a probe remain valid for later probes -- this is exactly the
  "reuse of knowledge derived by the SAT solver's learning algorithm"
  the paper's section 7 reports a >= 2x speedup for.
- **fresh encoding per probe** (``fresh=`` factory; the paper's §7
  baseline, ``SolveRequest.reuse_learned=False``): every probe after
  the first runs on a new encoding, adds its bounds unguarded and
  solves without assumptions, so nothing learnt carries over.

Both modes share the interval logic, budgets, bounds, checkpoints and
probe ``origin`` tags.

Supervision (see ``docs/ROBUSTNESS.md``): the search is bounded and
resumable.  A :class:`repro.robust.budget.Budget` interrupts a probe
*mid-search* (the CDCL loop raises ``BudgetExpired`` cooperatively); the
interrupted probe is logged as UNKNOWN and the best bound so far is
returned with :attr:`OptimizationOutcome.proven` False -- an anytime
upper estimate is never silently reported as a certified optimum.  A
:class:`repro.robust.checkpoint.SearchCheckpoint` records ``[L, R]`` and
the probe log after every probe, so an interrupted search resumes where
it stopped and reaches the same certified optimum an uninterrupted run
would have.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.arith.ast import And, IntVar
from repro.robust.budget import Budget, BudgetExpired
from repro.robust.checkpoint import SearchCheckpoint

__all__ = [
    "CheckpointMismatch",
    "ProbeLog",
    "OptimizationOutcome",
    "ResolvedBounds",
    "bin_search",
    "CHECKPOINT_FAILURE_LIMIT",
]


class CheckpointMismatch(ValueError):
    """A resumed checkpoint was recorded for another search (its cost
    range differs, or the constraints refute its recorded optimum): a
    caller error, not a solver fault."""


#: Consecutive failed checkpoint saves tolerated before a search stops
#: trying to persist (a run on a full disk must still finish and answer).
CHECKPOINT_FAILURE_LIMIT = 3


@dataclass
class ProbeLog:
    """One SOLVE call of the binary search."""

    lo: int
    hi: int
    sat: bool
    cost: int | None
    seconds: float
    conflicts: int
    decisions: int
    #: True when the probe was cut off by a budget before answering --
    #: ``sat`` is then False but means UNKNOWN, not UNSAT.
    interrupted: bool = False
    #: CNF growth caused by this probe's bound constraints (defaults
    #: keep old checkpoints loadable).
    vars_added: int = 0
    clauses_added: int = 0
    #: Why this probe ran: ``"initial"`` (the unconstrained SOLVE),
    #: ``"bisect"``, ``"recertify"`` (the final [R, R] audit), or a
    #: ``"bounds:*"`` provenance tag when a :class:`ResolvedBounds`
    #: interval shaped it (``bounds:confirm`` / ``bounds:upper_hint`` /
    #: ``bounds:lower_hint``).
    origin: str = ""


@dataclass
class OptimizationOutcome:
    """Result of a BIN_SEARCH run."""

    feasible: bool
    optimum: int | None
    probes: list[ProbeLog] = field(default_factory=list)
    seconds: float = 0.0
    #: True when the search closed its interval: a feasible outcome is a
    #: *certified* optimum (and an infeasible one certified UNSAT).  An
    #: interrupted anytime run reports its best bound with proven False.
    proven: bool = True
    #: True when a budget or time limit cut the search short.
    interrupted: bool = False
    interrupt_reason: str | None = None
    #: True when the run continued from a checkpoint.
    resumed: bool = False
    #: Checkpoint saves that failed with an OSError (full disk, injected
    #: io-error, ...).  The search keeps running -- persistence degrades,
    #: the answer does not -- and disables checkpointing after
    #: :data:`CHECKPOINT_FAILURE_LIMIT` consecutive failures, or at
    #: once when another search is writing the same checkpoint file.
    checkpoint_errors: int = 0
    #: True when checkpointing was disabled after save failures.
    checkpoint_disabled: bool = False
    #: Bounds provenance: providers consulted, the audited interval the
    #: search started from vs. the cold one, and which probes the bounds
    #: injected.  Empty when no bounds provider ran (JSON-ready; see
    #: ``docs/BOUNDS.md``).
    bounds: dict = field(default_factory=dict)

    @property
    def num_probes(self) -> int:
        return len(self.probes)

    @property
    def bounds_hits(self) -> int:
        """Probes whose placement came from a bounds provider."""
        return sum(
            1 for p in self.probes if p.origin.startswith("bounds:")
        )

    @property
    def status(self) -> str:
        """Honest one-word verdict: ``optimal`` / ``upper_bound`` /
        ``infeasible`` / ``unknown``."""
        if self.feasible:
            return "optimal" if self.proven else "upper_bound"
        return "infeasible" if self.proven else "unknown"


@dataclass
class ResolvedBounds:
    """Audited search-interval bounds handed to :func:`bin_search`.

    Built by :func:`repro.bounds.providers.resolve_bounds` -- the one
    sanctioned path by which warm caches, heuristic baselines and the
    relaxation sidecar reach the binary search.  Trust is explicit:

    - ``lower``: certified floor -- its :class:`repro.certify.bounds.
      BoundCertificate` passed the independent re-audit, so the search
      may start at ``left = lower`` and skip the UNSAT probes below it.
    - ``upper``: known-achievable cost -- its witness passed the
      independent analysis, so the search starts at ``right = upper``
      and skips the initial unconstrained SOLVE.
    - ``lower_hint`` / ``upper_hint``: unaudited guesses.  They only
      reorder probes (one targeted probe each) and can never shrink the
      certified interval by themselves; a wrong hint costs one probe,
      never the answer.

    Bounds are a probe-order / probe-count change only: the certified
    optimum and the ``{cost, proven, status}`` envelope are identical to
    a cold run's.
    """

    lower: int | None = None
    upper: int | None = None
    lower_hint: int | None = None
    upper_hint: int | None = None
    #: The caller holds an allocation achieving ``upper``, so a search
    #: closing exactly there needs no model-loading ``[R, R]`` probe
    #: (certified runs keep the probe regardless: the certificate must
    #: contain a SAT audit of the served model).
    model_loaded: bool = False
    #: Bound field -> provider name, for the probe log / stats.
    provenance: dict = field(default_factory=dict)

    def describe(self) -> dict:
        """JSON-ready summary (only the fields actually set)."""
        out: dict = {}
        for k in ("lower", "upper", "lower_hint", "upper_hint"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        if self.provenance:
            out["provenance"] = dict(self.provenance)
        return out


def bin_search(
    solver,
    cost_var: IntVar,
    lower: int,
    upper: int,
    on_sat: Callable[[], None] | None = None,
    time_limit: float | None = None,
    budget: Budget | None = None,
    checkpoint: SearchCheckpoint | None = None,
    on_checkpoint: Callable[[SearchCheckpoint], None] | None = None,
    on_probe: Callable[[ProbeLog, object], None] | None = None,
    bounds: ResolvedBounds | None = None,
    fresh: Callable[[], tuple[object, IntVar]] | None = None,
) -> OptimizationOutcome:
    """Minimize ``cost_var`` over an :class:`repro.arith.IntSolver`.

    ``on_sat`` is invoked after every satisfiable probe (while the model
    is loaded) so the caller can snapshot the best allocation found so
    far -- after the search the last snapshot belongs to the optimum.

    ``on_probe`` is invoked after *every* probe (including interrupted
    ones) with the fresh :class:`ProbeLog` and the probe's guard
    literal (None for an unguarded probe);
    :class:`repro.certify.ProbeCertifier` uses it to check each
    answer's certificate while the probe's state is still loaded.

    ``fresh`` (a zero-argument factory returning a new ``(solver,
    cost_var)``) selects the fresh-encoding probe mode: every probe
    after the first runs on the factory's encoding, adds its bounds
    *unguarded* and solves without assumptions.  ``on_sat`` and
    ``on_probe`` then run while that encoding is loaded; the factory is
    where a caller tracks which encoding that is.

    ``time_limit`` (seconds) turns the search into an anytime algorithm:
    on expiry the best known upper bound is returned with ``feasible``
    still true but ``proven`` False.  It is only checked *between*
    probes; pass ``budget`` to also interrupt a probe mid-search.

    ``budget`` is charged across all probes of this run; when it expires
    the in-flight probe is logged as interrupted and the outcome carries
    the best bound known so far (``status`` is ``upper_bound`` or, before
    any feasible model, ``unknown``).

    ``checkpoint`` resumes a previous run's state and is updated after
    every probe; ``on_checkpoint`` is then called (and the checkpoint
    saved when it has a path).  A resumed run that finds no new model
    re-certifies the optimum with one final ``[R, R]`` probe, so its
    model and cost match an uninterrupted run's.

    ``bounds`` (a :class:`ResolvedBounds`) seeds the search interval
    from *audited* provider bounds and reorders probes for the unaudited
    hints; see the class docstring for the trust levels.  The caller --
    normally :class:`repro.core.allocator.Allocator` via
    :func:`repro.bounds.providers.resolve_bounds` -- is responsible for
    having audited ``lower``/``upper``; ``bin_search`` itself only
    range-clamps them.  Out-of-range bounds are ignored; resumed runs
    ignore bounds entirely (the checkpoint interval is stronger).  The
    provenance of every bounds-shaped probe lands in
    :attr:`ProbeLog.origin` and the interval arithmetic in
    :attr:`OptimizationOutcome.bounds`.
    """
    try:
        return _search(solver, cost_var, lower, upper, on_sat, time_limit,
                       budget, checkpoint, on_checkpoint, on_probe, bounds,
                       fresh)
    finally:
        if checkpoint is not None:
            checkpoint.close()  # its writer and file lock: one search


def _search(solver, cost_var, lower, upper, on_sat, time_limit, budget,
            checkpoint, on_checkpoint, on_probe, bounds, fresh):
    t0 = time.perf_counter()
    out = OptimizationOutcome(feasible=False, optimum=None, proven=False)
    if budget is not None:
        budget.start()
    if checkpoint is None and on_checkpoint is not None:
        checkpoint = SearchCheckpoint(lower=lower, upper=upper)

    ckpt_failures = [0]  # consecutive failed saves

    def sync_checkpoint() -> None:
        if checkpoint is None:
            return
        checkpoint.lower = lower
        checkpoint.upper = upper
        checkpoint.left = left
        checkpoint.right = right
        if out.feasible:
            checkpoint.feasible = True
        elif out.proven:
            checkpoint.feasible = False
        else:
            # Initial SOLVE not answered yet: a resume re-runs it.
            checkpoint.feasible = None
        checkpoint.probes = [asdict(p) for p in out.probes]
        if on_checkpoint is not None:
            on_checkpoint(checkpoint)
        if checkpoint.path is None:
            return
        try:
            checkpoint.save()
        except OSError:
            # Persistence degrades, the search does not: count the
            # failure, and after CHECKPOINT_FAILURE_LIMIT consecutive
            # ones stop retrying (a full disk won't heal mid-run).
            out.checkpoint_errors += 1
            ckpt_failures[0] += 1
            if ckpt_failures[0] >= CHECKPOINT_FAILURE_LIMIT:
                checkpoint.path = None
            # (A save that found the file owned elsewhere dropped it.)
            out.checkpoint_disabled = checkpoint.path is None
        else:
            ckpt_failures[0] = 0

    probes_run = 0

    def run_probe(
        lo: int | None, hi: int | None, origin: str = "bisect"
    ) -> tuple[bool, int | None]:
        nonlocal solver, cost_var, probes_run
        if fresh is not None and probes_run:
            solver, cost_var = fresh()
        probes_run += 1
        guard = solver.new_guard() if fresh is None else None
        sat_engine = getattr(solver, "sat", None)
        v0 = sat_engine.nvars if sat_engine is not None else 0
        n0 = sat_engine.num_clauses() if sat_engine is not None else 0
        parts = []
        if lo is not None and lo > lower:
            parts.append(cost_var >= lo)
        if hi is not None:
            parts.append(cost_var <= hi)
        if guard is None:
            for part in parts:
                solver.require(part)
        elif parts:
            solver.require(And(*parts) if len(parts) > 1 else parts[0],
                           guard=guard)
        vars_added = (
            sat_engine.nvars - v0 if sat_engine is not None else 0
        )
        clauses_added = (
            sat_engine.num_clauses() - n0 if sat_engine is not None else 0
        )
        p0 = time.perf_counter()
        c0 = solver.stats.conflicts
        d0 = solver.stats.decisions
        expired: BudgetExpired | None = None
        try:
            sat = solver.solve(
                assumptions=[guard] if guard is not None else [],
                budget=budget,
            )
        except BudgetExpired as exc:
            sat, expired = False, exc
        seconds = time.perf_counter() - p0
        cost = solver.value(cost_var) if sat else None
        out.probes.append(
            ProbeLog(
                lo=lo if lo is not None else lower,
                hi=hi if hi is not None else upper,
                sat=sat,
                cost=cost,
                seconds=seconds,
                conflicts=solver.stats.conflicts - c0,
                decisions=solver.stats.decisions - d0,
                interrupted=expired is not None,
                vars_added=vars_added,
                clauses_added=clauses_added,
                origin=origin,
            )
        )
        if expired is not None:
            out.interrupted = True
            out.interrupt_reason = str(expired)
        elif sat and on_sat is not None:
            on_sat()
        if on_probe is not None:
            on_probe(out.probes[-1], guard)
        if expired is not None:
            raise expired
        return sat, cost

    left: int | None = None
    right: int | None = None
    model_loaded = False
    confirm_first = False
    rb = bounds or ResolvedBounds()
    floor_probe: int | None = None

    def note_bounds(**extra) -> None:
        if bounds is None:
            return
        out.bounds.update(rb.describe())
        out.bounds.setdefault("interval_cold", [lower, upper])
        out.bounds.update(extra)

    if checkpoint is not None and checkpoint.started:
        # Resume: skip the work the previous run already certified.
        # Bounds are ignored -- the checkpoint interval is stronger.
        if checkpoint.lower != lower or checkpoint.upper != upper:
            raise CheckpointMismatch(
                f"checkpoint range [{checkpoint.lower}, {checkpoint.upper}] "
                f"does not match this search's [{lower}, {upper}]"
            )
        out.resumed = True
        out.probes = [ProbeLog(**p) for p in checkpoint.probes]
        note_bounds(ignored="resumed from checkpoint")
        if checkpoint.feasible is False:
            out.proven = True
            out.seconds = time.perf_counter() - t0
            return out
        out.feasible = True
        left, right = checkpoint.left, checkpoint.right
        assert left is not None and right is not None
    else:
        # Certified floor: the region below it is audited empty, so the
        # search never probes there (and the initial SOLVE may carry
        # ``cost >= floor``).
        floor = lower
        if rb.lower is not None and lower < rb.lower:
            floor = min(rb.lower, upper)
        trusted_upper = rb.upper
        if trusted_upper is not None and not (lower <= trusted_upper <= upper):
            trusted_upper = None  # out of scale: ignore defensively
        hint = rb.upper_hint
        if hint is not None and (
            trusted_upper is not None or not (floor <= hint < upper)
        ):
            hint = None  # audited upper wins / out of range: ignore
        if rb.lower_hint is not None and floor < rb.lower_hint:
            floor_probe = min(rb.lower_hint, upper)
        initial_skipped = False
        if trusted_upper is not None:
            # The caller audited the bound achievable via the
            # independent analysis: no probe needed at all, the interval
            # starts at [floor, upper_bound].  Unless the caller also
            # holds the witness model, the final [R, R] re-certification
            # loads one if no SAT probe runs.
            out.feasible = True
            left, right = min(floor, trusted_upper), trusted_upper
            confirm_first = left < right
            model_loaded = rb.model_loaded
            initial_skipped = True
            sync_checkpoint()
        elif hint is not None:
            # Unaudited upper hint: probe the hinted region first.  SAT
            # makes the expensive unconstrained SOLVE unnecessary; UNSAT
            # certifies "no solution <= hint", so the search continues
            # above.
            try:
                sat, cost = run_probe(floor, hint, origin="bounds:upper_hint")
            except BudgetExpired:
                out.seconds = time.perf_counter() - t0
                sync_checkpoint()
                note_bounds()
                return out  # status: unknown
            if sat:
                assert cost is not None
                out.feasible = True
                model_loaded = True
                left, right = min(floor, cost), cost
                # A hint usually comes from a near-identical scenario
                # whose optimum survived the perturbation, so try to
                # close the interval with a single UNSAT(cost-1) probe
                # before falling back to bisection.
                confirm_first = True
                initial_skipped = True
                sync_checkpoint()
            else:
                floor = hint + 1
        if right is None:
            # R := SOLVE(phi): the initial unconstrained query (bounded
            # below by the certified floor, when one is known).
            try:
                sat, cost = run_probe(
                    floor,
                    None,
                    origin="initial" if floor <= lower else "bounds:floor",
                )
            except BudgetExpired:
                out.seconds = time.perf_counter() - t0
                sync_checkpoint()
                note_bounds()
                return out  # status: unknown
            if not sat:
                out.proven = True  # certified infeasibility
                out.seconds = time.perf_counter() - t0
                left, right = floor, None
                sync_checkpoint()
                note_bounds(interval_start=[left, right])
                return out
            out.feasible = True
            model_loaded = True
            assert cost is not None
            left, right = floor, cost
            sync_checkpoint()
        note_bounds(
            interval_start=[left, right],
            initial_solve_skipped=initial_skipped,
        )

    while left < right:
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            # Anytime: keep the best known upper bound, honestly unproven.
            out.interrupted = True
            out.interrupt_reason = f"time limit ({time_limit:g}s) expired"
            break
        if budget is not None and budget.expired():
            out.interrupted = True
            out.interrupt_reason = budget.expired_reason
            break
        if confirm_first:
            mid, origin = right - 1, "bounds:confirm"
            confirm_first = False
        elif floor_probe is not None and left < floor_probe <= right:
            # Unaudited lower hint: one targeted probe at [left, hint-1].
            # UNSAT certifies the hint as the true floor in a single
            # step; SAT just shrinks the interval like any bisect probe.
            mid, origin = floor_probe - 1, "bounds:lower_hint"
            floor_probe = None
        else:
            mid, origin = (left + right) // 2, "bisect"
            floor_probe = None  # out of range now: stop rechecking
        try:
            sat, cost = run_probe(left, mid, origin=origin)
        except BudgetExpired:
            break  # interrupted probe already logged; keep best bound
        if not sat:
            left = mid + 1
        else:
            assert cost is not None and cost <= mid
            right = cost
            model_loaded = True
        sync_checkpoint()

    out.optimum = right
    out.proven = left >= right
    if out.proven and not model_loaded:
        # A resumed run may close the interval without any SAT probe of
        # its own; re-certify [R, R] so the model (and on_sat snapshot)
        # belong to the optimum, exactly as in an uninterrupted run.
        try:
            sat, _ = run_probe(right, right, origin="recertify")
        except BudgetExpired:
            out.proven = False
            out.seconds = time.perf_counter() - t0
            sync_checkpoint()
            return out
        if not sat:
            if out.resumed:
                raise CheckpointMismatch(
                    "recorded state is inconsistent with the constraints: "
                    f"checkpoint optimum {right} is not satisfiable"
                )
            raise ValueError(
                "recorded state is inconsistent with the constraints: "
                f"optimum {right} from an audited bounds witness is not "
                "satisfiable"
            )
        sync_checkpoint()
    out.seconds = time.perf_counter() - t0
    return out
