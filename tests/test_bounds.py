"""Tests for the certified dual-bounds sidecar (:mod:`repro.bounds`).

Three layers of coverage:

1. **Certificate audits** -- every certificate kind produced by the
   relaxation passes the independent re-audit, and every tampered
   variant (inflated bound, inflated term, wrong objective) fails it.
2. **Soundness property** -- on random small systems no provider output
   ever excludes the brute-force-oracle optimum: every certified floor
   sits at or below it, every audited witness cost at or above it.  A
   deliberately corrupted certificate is demoted to a hint and cannot
   change the ``{cost, proven, status}`` envelope.
3. **Wiring** -- trusted bounds shrink the probe count through
   ``ResolvedBounds`` only, and the non-exact ``sum_resp`` witness path
   is never promoted to a trusted lower bound.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import branch_and_bound
from repro.bounds import (
    HintBoundsProvider,
    RelaxationBoundsProvider,
    dual_floor,
    resolve_bounds,
)
from repro.certify import audit_witness
from repro.certify.bounds import (
    BoundCertificate,
    audit_lower_certificate,
    bound_objective_key,
)
from repro.core import (
    Allocator,
    MinimizeCanUtilization,
    MinimizeMaxUtilization,
    MinimizeSumResponseTimes,
    MinimizeSumTRT,
    MinimizeTRT,
    SolveRequest,
)
from repro.io import allocation_to_dict
from repro.model import (
    CAN,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
)
from repro.workloads import tindell_architecture, tindell_partition


def ring_system(n_tasks=6):
    return tindell_partition(n_tasks), tindell_architecture()


def can_system():
    """Two tasks forced onto different ECUs: their message must cross
    the bus, so the forced_can_floor is non-trivial."""
    arch = Architecture(
        ecus=[Ecu("p0"), Ecu("p1")],
        media=[Medium("bus", CAN, ("p0", "p1"), bit_rate=500_000,
                      tick_us=10)],
    )
    tasks = TaskSet([
        Task("a", 1000, {"p0": 100}, 1000,
             messages=(Message("b", 64, 1000),),
             allowed=frozenset({"p0"})),
        Task("b", 1000, {"p1": 100}, 1000, allowed=frozenset({"p1"})),
    ], name="can-forced")
    return tasks, arch


# ---------------------------------------------------------------------------
# 1. Certificate kinds: produced, audited, tamper-evident
# ---------------------------------------------------------------------------


class TestCertificateAudit:
    @pytest.mark.parametrize("objective", [
        MinimizeSumResponseTimes(),
        MinimizeTRT("ring"),
        MinimizeSumTRT(),
        MinimizeMaxUtilization(),
    ])
    def test_ring_floors_pass_audit(self, objective):
        tasks, arch = ring_system()
        cert = dual_floor(tasks, arch, objective)
        assert cert is not None and cert.bound > 0
        assert cert.objective == bound_objective_key(objective)
        report = audit_lower_certificate(tasks, arch, objective, cert)
        assert report.ok, report.problems
        assert report.recomputed_bound >= cert.bound

    def test_forced_can_floor_passes_audit(self):
        tasks, arch = can_system()
        obj = MinimizeCanUtilization("bus")
        cert = dual_floor(tasks, arch, obj)
        assert cert is not None and cert.kind == "forced_can_floor"
        assert cert.bound > 0
        assert audit_lower_certificate(tasks, arch, obj, cert).ok

    def test_colocatable_messages_contribute_nothing(self):
        # Same candidate sets: the message may be co-located away, so
        # no forced floor exists.
        arch = Architecture(
            ecus=[Ecu("p0"), Ecu("p1")],
            media=[Medium("bus", CAN, ("p0", "p1"), bit_rate=500_000,
                          tick_us=10)],
        )
        tasks = TaskSet([
            Task("a", 1000, {"p0": 100, "p1": 100}, 1000,
                 messages=(Message("b", 64, 1000),)),
            Task("b", 1000, {"p0": 100, "p1": 100}, 1000),
        ])
        assert dual_floor(tasks, arch, MinimizeCanUtilization("bus")) is None

    def test_inflated_bound_is_rejected(self):
        tasks, arch = ring_system()
        obj = MinimizeTRT("ring")
        cert = dual_floor(tasks, arch, obj)
        forged = BoundCertificate(
            cert.kind, cert.objective, cert.bound + 1,
            dict(cert.terms), dict(cert.meta),
        )
        report = audit_lower_certificate(tasks, arch, obj, forged)
        assert not report.ok

    def test_inflated_term_is_rejected(self):
        tasks, arch = ring_system()
        obj = MinimizeSumResponseTimes()
        cert = dual_floor(tasks, arch, obj)
        terms = dict(cert.terms)
        key = next(iter(terms))
        terms[key] += 1
        forged = BoundCertificate(
            cert.kind, cert.objective, cert.bound + 1, terms,
        )
        assert not audit_lower_certificate(tasks, arch, obj, forged).ok

    def test_certificate_never_transfers_between_objectives(self):
        tasks, arch = ring_system()
        cert = dual_floor(tasks, arch, MinimizeTRT("ring"))
        report = audit_lower_certificate(
            tasks, arch, MinimizeSumTRT(), cert
        )
        assert not report.ok

    def test_util_packing_overclaimed_machine_count_rejected(self):
        # Claiming FEWER machines than exist inflates the averaged
        # floor; the auditor recomputes E from the model and rejects.
        tasks, arch = ring_system()
        obj = MinimizeMaxUtilization()
        cert = dual_floor(tasks, arch, obj)
        assert cert.kind == "util_packing"
        forged = BoundCertificate(
            cert.kind, cert.objective,
            max(-(-sum(cert.terms.values()) // 1), max(cert.terms.values())),
            dict(cert.terms), meta={"ecus": 1},
        )
        if forged.bound > cert.bound:
            assert not audit_lower_certificate(
                tasks, arch, obj, forged
            ).ok


# ---------------------------------------------------------------------------
# 2. Soundness: provider output never excludes the oracle optimum
# ---------------------------------------------------------------------------


@st.composite
def small_can_systems(draw):
    n_ecus = draw(st.integers(2, 3))
    ecus = [Ecu(f"p{i}") for i in range(n_ecus)]
    arch = Architecture(
        ecus=ecus,
        media=[Medium("bus", CAN, tuple(e.name for e in ecus),
                      bit_rate=draw(st.integers(100_000, 1_000_000)),
                      tick_us=draw(st.sampled_from([1, 10])))],
    )
    n_tasks = draw(st.integers(1, 3))
    tasks = []
    for i in range(n_tasks):
        period = draw(st.integers(100, 5000))
        wcet = draw(st.integers(1, max(1, period // 5)))
        msgs = ()
        if i > 0 and draw(st.booleans()):
            msgs = (Message(f"t{i-1}", draw(st.integers(8, 256)),
                            draw(st.integers(period // 2, period))),)
        allowed = None
        if draw(st.booleans()):
            allowed = frozenset({draw(st.sampled_from(ecus)).name})
        tasks.append(Task(
            name=f"t{i}", period=period,
            wcet={e.name: wcet for e in ecus},
            deadline=draw(st.integers(max(wcet, period // 2), period)),
            messages=msgs,
            allowed=allowed,
        ))
    return TaskSet(tasks, name="prop"), arch


class TestSoundnessProperty:
    @settings(max_examples=12, deadline=None)
    @given(small_can_systems())
    def test_bounds_never_exclude_the_oracle_optimum(self, system):
        tasks, arch = system
        objective = MinimizeCanUtilization("bus")
        oracle = branch_and_bound(
            tasks, arch, objective="can_util", medium="bus"
        )
        provider = RelaxationBoundsProvider(anneal_iterations=60)
        rb, witness, meta = resolve_bounds(
            tasks, arch, objective,
            SolveRequest(objective=objective, bounds=(provider,)),
        )
        if not oracle.feasible:
            # Nothing to bound; an audited witness would contradict the
            # exhaustive search.
            assert rb.upper is None
            return
        opt = oracle.cost
        if rb.lower is not None:
            assert rb.lower <= opt
        if rb.upper is not None:
            assert rb.upper >= opt
            assert witness is not None

    @settings(max_examples=8, deadline=None)
    @given(small_can_systems())
    def test_certified_floor_survives_independent_audit(self, system):
        tasks, arch = system
        objective = MinimizeCanUtilization("bus")
        cert = dual_floor(tasks, arch, objective)
        if cert is None:
            return
        assert audit_lower_certificate(tasks, arch, objective, cert).ok


class TestCorruptedCertificate:
    def _cold(self, tasks, arch, obj):
        return Allocator(tasks, arch).minimize(
            obj, request=SolveRequest(certify=True)
        )

    def test_corrupt_certificate_is_demoted_not_trusted(self):
        tasks, arch = ring_system()
        obj = MinimizeTRT("ring")
        cold = self._cold(tasks, arch, obj)
        assert cold.proven

        # A forged floor claiming the optimum itself, backed by a
        # certificate whose arithmetic cannot survive the re-audit.
        genuine = dual_floor(tasks, arch, obj)
        forged = BoundCertificate(
            genuine.kind, genuine.objective, cold.cost,
            dict(genuine.terms), dict(genuine.meta),
        )
        lying = HintBoundsProvider(
            lower=cold.cost, certificate=forged, name="liar"
        )
        res = Allocator(tasks, arch).minimize(
            obj, request=SolveRequest(certify=True, bounds=(lying,))
        )
        # Bit-identical envelope: the lie changed nothing certified.
        assert (res.cost, res.proven, res.status) == (
            cold.cost, cold.proven, cold.status
        )
        assert res.certificate.all_verified
        entry = next(
            e for e in res.outcome.bounds["providers"]
            if e["provider"] == "liar"
        )
        assert entry["lower_audit"] == "failed"
        # Demoted: at most a probe-order hint, never the certified floor.
        assert res.outcome.bounds.get("lower") is None
        assert res.outcome.bounds.get("lower_hint") == cold.cost

    def test_overclaimed_lower_above_certificate_bound_is_demoted(self):
        # Even a *valid* certificate cannot back a claim above its own
        # bound.
        tasks, arch = ring_system()
        obj = MinimizeTRT("ring")
        cold = self._cold(tasks, arch, obj)
        genuine = dual_floor(tasks, arch, obj)
        lying = HintBoundsProvider(
            lower=genuine.bound + 1, certificate=genuine, name="liar"
        )
        res = Allocator(tasks, arch).minimize(
            obj, request=SolveRequest(certify=True, bounds=(lying,))
        )
        assert (res.cost, res.proven, res.status) == (
            cold.cost, cold.proven, cold.status
        )
        assert res.outcome.bounds.get("lower") is None


# ---------------------------------------------------------------------------
# 3. Wiring: probe savings, sum_resp non-promotion
# ---------------------------------------------------------------------------


class TestSearchWiring:
    def test_trusted_witness_cuts_probes_bit_identically(self):
        tasks, arch = ring_system()
        obj = MinimizeTRT("ring")
        cold = Allocator(tasks, arch).minimize(obj)
        hint = HintBoundsProvider(
            upper=cold.cost,
            witness=allocation_to_dict(cold.allocation),
            name="cache",
        )
        warm = Allocator(tasks, arch).minimize(
            obj, request=SolveRequest(bounds=(hint,))
        )
        assert (warm.cost, warm.proven, warm.status) == (
            cold.cost, cold.proven, cold.status
        )
        assert len(warm.outcome.probes) < len(cold.outcome.probes)
        assert warm.outcome.bounds_hits >= 1
        assert all(
            p.origin.startswith("bounds:")
            for p in warm.outcome.probes if p.origin
        )

    def test_relaxation_auto_matches_cold_envelope(self):
        tasks, arch = ring_system(7)
        obj = MinimizeTRT("ring")
        cold = Allocator(tasks, arch).minimize(obj)
        auto = Allocator(tasks, arch).minimize(
            obj,
            request=SolveRequest(bounds=(RelaxationBoundsProvider(),)),
        )
        assert (auto.cost, auto.proven, auto.status) == (
            cold.cost, cold.proven, cold.status
        )
        assert len(auto.outcome.probes) <= len(cold.outcome.probes)

    def test_bounds_off_mode_ignores_providers(self):
        tasks, arch = ring_system()
        obj = MinimizeTRT("ring")
        res = Allocator(tasks, arch).minimize(
            obj,
            request=SolveRequest(
                bounds=(RelaxationBoundsProvider(),), bounds_mode="off"
            ),
        )
        assert res.proven
        assert not res.outcome.bounds.get("providers")

    def test_provider_crash_degrades_to_cold_solve(self):
        class Boom(HintBoundsProvider):
            def propose(self, tasks, arch, request):
                raise RuntimeError("kaboom")

        tasks, arch = ring_system()
        obj = MinimizeTRT("ring")
        cold = Allocator(tasks, arch).minimize(obj)
        res = Allocator(tasks, arch).minimize(
            obj, request=SolveRequest(bounds=(Boom(),))
        )
        assert (res.cost, res.proven, res.status) == (
            cold.cost, cold.proven, cold.status
        )
        entry = res.outcome.bounds["providers"][0]
        assert "kaboom" in entry["error"]


class TestSumRespNeverTrustedLower:
    """Satellite: the ``sum_resp`` witness audit is only an upper bound
    (priorities the encoder chose are not recoverable from the
    allocation), so it is tagged ``exact=False`` and must never be
    promoted to a certified floor."""

    def test_audit_witness_sum_resp_is_inexact(self):
        tasks, arch = ring_system()
        obj = MinimizeSumResponseTimes()
        res = Allocator(tasks, arch).minimize(obj)
        report = audit_witness(
            tasks, arch, res.allocation,
            objective=obj, claimed_cost=res.cost,
        )
        assert report.ok, report.problems
        assert report.exact is False

    def test_audit_witness_trt_is_exact(self):
        tasks, arch = ring_system()
        obj = MinimizeTRT("ring")
        res = Allocator(tasks, arch).minimize(obj)
        report = audit_witness(
            tasks, arch, res.allocation,
            objective=obj, claimed_cost=res.cost,
        )
        assert report.ok and report.exact is True

    def test_inexact_witness_cost_never_becomes_a_floor(self):
        tasks, arch = ring_system()
        obj = MinimizeSumResponseTimes()
        cold = Allocator(tasks, arch).minimize(obj)
        hint = HintBoundsProvider(
            upper=cold.cost,
            witness=allocation_to_dict(cold.allocation),
            exact=False,
            name="sum-resp-cache",
        )
        rb, witness, meta = resolve_bounds(
            tasks, arch, obj,
            SolveRequest(objective=obj, bounds=(hint,)),
        )
        # The witness is achievable, hence a fine upper bound...
        assert rb.upper is not None and witness is not None
        # ...but nothing here may refute costs below it.
        assert rb.lower is None
        warm = Allocator(tasks, arch).minimize(
            obj, request=SolveRequest(bounds=(hint,))
        )
        assert (warm.cost, warm.proven, warm.status) == (
            cold.cost, cold.proven, cold.status
        )


class TestResolveShim:
    def test_warm_kwargs_removed_with_migration_hint(self):
        # The one-release shim has been removed: the fields are gone
        # from SolveRequest, so passing one is a plain TypeError.
        with pytest.raises(TypeError):
            SolveRequest(warm_start=3)
        with pytest.raises(TypeError):
            SolveRequest(warm_allocation={"task_ecu": {}})

    def test_hint_provider_replaces_warm_kwargs(self):
        # The migration target works: a HintBoundsProvider carrying the
        # old warm payload resolves to the same audited upper bound.
        tasks, arch = ring_system()
        obj = MinimizeTRT("ring")
        cold = Allocator(tasks, arch).minimize(obj)
        rb, witness, meta = resolve_bounds(
            tasks, arch, obj,
            SolveRequest(objective=obj, bounds=(
                HintBoundsProvider(
                    upper=cold.cost,
                    witness=allocation_to_dict(cold.allocation),
                ),
            )),
        )
        assert rb.upper == cold.cost and witness is not None
        assert any(e["provider"] == "hint" for e in meta["providers"])

    def test_request_is_frozen_and_carries_bounds(self):
        req = SolveRequest(bounds=(HintBoundsProvider(upper=3),))
        assert len(req.bounds) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.bounds = ()
