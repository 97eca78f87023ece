"""Provider resolution: audit every proposal, keep the tightest bounds.

:func:`resolve_bounds` is the single gate between bounds providers and
the binary search.  It runs every :class:`~repro.core.api.
BoundsProvider` on :attr:`SolveRequest.bounds` and audits each
proposal:

- an ``upper`` backed by a ``witness`` is re-checked by the independent
  analysis; the *recomputed* cost (never the claim) becomes a trusted
  upper bound and the decoded witness the model substitute;
- a ``lower`` backed by a ``certificate`` is re-audited from the model
  by :func:`repro.certify.bounds.audit_lower_certificate`; only a
  passing audit yields a certified floor;
- everything else -- bare numbers, failed audits, non-exact reports --
  degrades to a probe-order hint that can never shrink the certified
  interval.

Tightest audited bound wins (max of lowers, min of uppers).  If the
audited sides ever cross (an audit/analysis bug, not a valid state) the
floor is demoted to a hint: the search then stays sound and merely
slower.
"""

from __future__ import annotations

import time

from repro.certify.bounds import audit_lower_certificate
from repro.core.api import BoundsProvider, BoundsReport
from repro.core.optimize import ResolvedBounds

__all__ = ["HintBoundsProvider", "resolve_bounds"]


class HintBoundsProvider(BoundsProvider):
    """A static proposal: a warm-cache entry, an externally computed
    bound, or a test fixture.  Carries whatever evidence the caller has
    (witness payload, certificate); the resolver audits it like any
    other proposal."""

    def __init__(
        self,
        lower: int | None = None,
        upper: int | None = None,
        witness: dict | None = None,
        certificate=None,
        exact: bool = True,
        name: str = "hint",
    ):
        self.name = name
        self.lower = lower
        self.upper = upper
        self.witness = witness
        self.certificate = certificate
        self.exact = exact

    def propose(self, tasks, arch, request) -> BoundsReport | None:
        if self.lower is None and self.upper is None and self.witness is None:
            return None
        return BoundsReport(
            provider=self.name,
            lower=self.lower,
            upper=self.upper,
            witness=self.witness,
            certificate=self.certificate,
            exact=self.exact,
        )


def _audit_witness_payload(tasks, arch, objective, payload):
    """``(allocation, independently recomputed cost)`` or None when the
    payload is malformed, unschedulable, or unscorable."""
    from repro.analysis.feasibility import check_allocation
    from repro.certify.audit import independent_cost
    from repro.io.json_codec import allocation_from_dict

    try:
        alloc = allocation_from_dict(payload)
    except (KeyError, ValueError, TypeError):
        return None
    if check_allocation(tasks, arch, alloc).problems:
        return None
    try:
        cost, _exact = independent_cost(tasks, arch, alloc, objective)
    except (KeyError, ValueError, TypeError):
        return None
    return alloc, int(cost)


def resolve_bounds(tasks, arch, objective, request):
    """Run and audit all bounds providers for one solve.

    Returns ``(resolved, witness_alloc, meta)``: the
    :class:`~repro.core.optimize.ResolvedBounds` to hand to
    ``bin_search``, the decoded allocation achieving ``resolved.upper``
    (or None), and a JSON-ready provenance dict (per-provider verdicts
    plus the audit records of the winning bounds -- the certifier turns
    those into ``kind="bounds"`` probe certificates).
    """
    rb = ResolvedBounds()
    meta: dict = {"mode": "auto", "providers": [], "audits": []}
    witness_alloc = None
    if request is None:
        return rb, None, meta
    mode = getattr(request, "bounds_mode", "auto")
    meta["mode"] = mode
    if mode == "off" or objective is None:
        return rb, None, meta

    providers = list(getattr(request, "bounds", ()) or ())

    # Providers read the objective off the request.
    req = request
    if getattr(request, "objective", None) is not objective:
        req = request.merged(objective=objective)

    for prov in providers:
        name = getattr(prov, "name", type(prov).__name__)
        entry: dict = {"provider": name}
        meta["providers"].append(entry)
        t0 = time.perf_counter()
        try:
            rep = prov.propose(tasks, arch, req)
        except Exception as exc:  # a provider crash is "no proposal"
            entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["seconds"] = round(time.perf_counter() - t0, 6)
            continue
        entry["seconds"] = round(time.perf_counter() - t0, 6)
        if rep is None:
            continue
        if rep.seconds:
            entry["seconds"] = round(rep.seconds, 6)
        entry["proposal"] = {
            "lower": rep.lower,
            "upper": rep.upper,
            "witness": rep.witness is not None,
            "certificate": rep.certificate is not None,
            "exact": rep.exact,
        }

        # Upper side: only a re-audited witness is trusted, and then at
        # its *recomputed* cost.
        if rep.witness is not None:
            audited = _audit_witness_payload(
                tasks, arch, objective, rep.witness
            )
            if audited is not None:
                alloc, cost = audited
                entry["upper_audit"] = "ok"
                if rb.upper is None or cost < rb.upper:
                    rb.upper = cost
                    rb.provenance["upper"] = name
                    witness_alloc = alloc
                    meta["audits"].append({
                        "provider": name,
                        "side": "upper",
                        "detail": (
                            "witness re-audited feasible, independent "
                            f"cost {cost}"
                        ),
                    })
            else:
                entry["upper_audit"] = "failed"
                if rep.upper is not None and (
                    rb.upper_hint is None or rep.upper < rb.upper_hint
                ):
                    rb.upper_hint = rep.upper
                    rb.provenance["upper_hint"] = name
        elif rep.upper is not None:
            if rb.upper_hint is None or rep.upper < rb.upper_hint:
                rb.upper_hint = rep.upper
                rb.provenance["upper_hint"] = name

        # Lower side: only a certificate that survives the independent
        # re-audit is trusted.  A non-exact report without certificate
        # (sum_resp witnesses above all) must stay a hint -- promoting
        # it would let an upper-bound-only audit skip UNSAT probes.
        if rep.lower is not None:
            trusted = False
            if rep.certificate is not None:
                audit = audit_lower_certificate(
                    tasks, arch, objective, rep.certificate
                )
                cert_bound = getattr(rep.certificate, "bound", None)
                if (
                    audit.ok
                    and isinstance(cert_bound, int)
                    and rep.lower <= cert_bound
                ):
                    trusted = True
                    entry["lower_audit"] = "ok"
                    if rb.lower is None or rep.lower > rb.lower:
                        rb.lower = rep.lower
                        rb.provenance["lower"] = name
                        meta["audits"].append({
                            "provider": name,
                            "side": "lower",
                            "detail": (
                                f"{rep.certificate.kind} certificate "
                                f"re-audited sound at {cert_bound}"
                            ),
                        })
                else:
                    entry["lower_audit"] = "failed"
                    entry["lower_audit_problems"] = list(audit.problems)
            if not trusted:
                if rb.lower_hint is None or rep.lower > rb.lower_hint:
                    rb.lower_hint = rep.lower
                    rb.provenance["lower_hint"] = name

    if rb.lower is not None and rb.upper is not None and rb.lower > rb.upper:
        # Both sides were audited, so a crossing means an audit or
        # analysis bug.  Fail safe: drop the floor to a hint -- the
        # search is then merely slower, never unsound.
        meta.setdefault("notes", []).append(
            f"certified floor {rb.lower} exceeds audited upper "
            f"{rb.upper}; floor demoted to a hint"
        )
        rb.lower, rb.provenance["lower_demoted"] = (
            None,
            rb.provenance.pop("lower", "?"),
        )
    return rb, witness_alloc, meta
