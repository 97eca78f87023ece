"""Greedy-dual relaxations producing certified interval bounds.

Lower bounds drop the integrality of the placement and keep only the
budgets every feasible allocation must pay: each task's own WCET inside
any response time (``wcet_floor``), every ring member's minimal token
slot (``slot_floor``), bus traffic that no placement can co-locate away
(``forced_can_floor``), and the fractional spread of total utilization
demand over all machines (``util_packing`` -- the LP relaxation of the
assignment).  Every bound ships a :class:`repro.certify.bounds.
BoundCertificate` carrying its per-item dual weights; the auditor
(:func:`repro.certify.bounds.audit_lower_certificate`) recomputes the
arithmetic from the model.  This module and the auditor deliberately
share no code, so a bug here cannot pass its own audit.

Upper bounds come from repaired heuristic allocations
(:mod:`repro.baselines`): greedy first-fit, tightened or repaired by a
short simulated-annealing walk, re-scored by the independent analysis.
The witness (not the heuristic's claim) is what the resolver later
audits.
"""

from __future__ import annotations

import time

from repro.certify.bounds import BoundCertificate, bound_objective_key
from repro.core.api import BoundsProvider, BoundsReport

__all__ = ["RelaxationBoundsProvider", "dual_floor", "repaired_upper"]

#: Per-mille scale of the CAN-utilization objective (kept local: the
#: relaxation must not share constants with the auditor either).
_CAN_SCALE = 1000


def _ceil(a: int, b: int) -> int:
    return (a + b - 1) // b


def dual_floor(tasks, arch, objective) -> BoundCertificate | None:
    """A certified lower bound on the optimum, or None when no
    relaxation applies to this objective / architecture."""
    from repro.model.architecture import MediumKind

    try:
        key = bound_objective_key(objective)
    except ValueError:
        return None
    kind, _, arg = key.partition(":")

    if kind == "sum_resp":
        # Any response time contains the task's own WCET, whatever the
        # placement: sum the per-task minima over candidate ECUs.
        terms: dict[str, int] = {}
        for t in tasks:
            cands = t.candidate_ecus(arch)
            if cands:
                terms[t.name] = min(t.wcet[p] for p in cands)
        if not terms:
            return None
        return BoundCertificate(
            "wcet_floor", key, sum(terms.values()), terms
        )

    if kind in ("trt", "sum_trt"):
        # Every ring member owns one token slot of at least min_slot.
        terms = {}
        for kname, med in arch.media.items():
            if med.kind is not MediumKind.TOKEN_RING:
                continue
            if kind == "trt" and kname != arg:
                continue
            for p in med.ecus:
                terms[f"{kname}/{p}"] = med.min_slot
        if not terms:
            return None
        return BoundCertificate(
            "slot_floor", key, sum(terms.values()), terms
        )

    if kind == "can":
        # On a single-medium CAN architecture a message whose sender
        # and receiver candidate sets are disjoint must cross the bus
        # under every placement.
        if len(arch.media) != 1 or arg not in arch.media:
            return None
        med = arch.media[arg]
        if med.kind is not MediumKind.CAN:
            return None
        terms = {}
        names = tasks.names()
        for t in tasks:
            senders = set(t.candidate_ecus(arch))
            for i, m in enumerate(t.messages):
                if m.target not in names:
                    return None  # unknown sink: forcing argument void
                receivers = set(tasks[m.target].candidate_ecus(arch))
                if not senders or not receivers or senders & receivers:
                    continue  # may be co-located: contributes 0
                rho = med.transmission_ticks(m.size_bits)
                terms[f"{t.name}/{i}"] = _ceil(rho * _CAN_SCALE, t.period)
        if not terms:
            return None
        return BoundCertificate(
            "forced_can_floor", key, sum(terms.values()), terms
        )

    # max_util: spread the total minimal demand fractionally over all
    # candidate machines; no machine can be below the average, and none
    # below the largest single task.
    scale = int(arg)
    terms = {}
    ecus: set[str] = set()
    for t in tasks:
        cands = t.candidate_ecus(arch)
        if not cands:
            continue
        ecus.update(cands)
        terms[t.name] = min(
            _ceil(t.wcet[p] * scale, t.period) for p in cands
        )
    if not terms:
        return None
    n = max(len(ecus), 1)
    bound = max(_ceil(sum(terms.values()), n), max(terms.values()))
    return BoundCertificate(
        "util_packing", key, bound, terms, meta={"ecus": n}
    )


def repaired_upper(
    tasks, arch, objective, anneal_iterations: int = 800, seed: int = 0
):
    """Best feasible allocation the repaired heuristics reach, or None.

    Returns ``(allocation, cost, exact)`` where ``cost`` is recomputed
    by the independent analysis (:func:`repro.certify.audit.
    independent_cost`) -- never the heuristic's own claim -- and
    ``exact`` says whether that cost is a unique function of the
    allocation (False only for ``sum_resp``).  Candidates that fail the
    full schedulability re-check are dropped: an unschedulable
    allocation bounds nothing.
    """
    from repro.analysis.feasibility import check_allocation
    from repro.baselines.annealing import simulated_annealing
    from repro.baselines.greedy import greedy_first_fit
    from repro.certify.audit import independent_cost
    from repro.core.objectives import objective_spec

    candidates = []
    g = greedy_first_fit(tasks, arch)
    if g.feasible and g.allocation is not None:
        candidates.append(g.allocation)
    if anneal_iterations > 0:
        # The annealing walk doubles as the repair step: when greedy
        # fails (or lands on a poor placement) it searches the
        # neighbourhood for a schedulable, cheaper one.
        spec, medium = objective_spec(objective)
        try:
            sa = simulated_annealing(
                tasks,
                arch,
                objective=spec,
                medium=medium,
                iterations=anneal_iterations,
                seed=seed,
            )
        except ValueError:
            sa = None
        if sa is not None and sa.feasible and sa.allocation is not None:
            candidates.append(sa.allocation)
    best = None
    for alloc in candidates:
        if check_allocation(tasks, arch, alloc).problems:
            continue
        cost, exact = independent_cost(tasks, arch, alloc, objective)
        if best is None or cost < best[1]:
            best = (alloc, int(cost), exact)
    return best


class RelaxationBoundsProvider(BoundsProvider):
    """The certified dual-bounds sidecar as a provider.

    Proposes a :class:`~repro.core.api.BoundsReport` combining the
    certificate-backed relaxation floor (:func:`dual_floor`) with a
    witness-backed heuristic upper bound (:func:`repaired_upper`;
    skipped with ``heuristic_upper=False``).
    Stateless and cheap enough to run synchronously before the search
    (``bounds_mode="auto"``).
    """

    name = "relaxation"

    def __init__(self, anneal_iterations: int = 800, seed: int = 0,
                 heuristic_upper: bool = True):
        self.anneal_iterations = anneal_iterations
        self.seed = seed
        #: False proposes the floor alone: no greedy, no walk (a serve
        #: warm hit, whose audited witness already is the upper bound).
        self.heuristic_upper = heuristic_upper
        if not heuristic_upper:
            self.name = "relaxation:floor"
        elif not anneal_iterations:
            self.name = "relaxation:no-anneal"

    def propose(self, tasks, arch, request) -> BoundsReport | None:
        from repro.io.json_codec import allocation_to_dict

        objective = getattr(request, "objective", None)
        if objective is None:
            return None
        t0 = time.perf_counter()
        cert = dual_floor(tasks, arch, objective)
        upper = None
        if self.heuristic_upper:
            upper = repaired_upper(
                tasks, arch, objective, self.anneal_iterations, self.seed
            )
        if cert is None and upper is None:
            return None
        rep = BoundsReport(provider=self.name)
        if cert is not None:
            rep.lower = cert.bound
            rep.certificate = cert
        if upper is not None:
            alloc, cost, exact = upper
            rep.upper = cost
            rep.witness = allocation_to_dict(alloc)
            rep.exact = exact
        rep.seconds = time.perf_counter() - t0
        return rep
