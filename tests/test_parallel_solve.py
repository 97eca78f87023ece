"""Tests for the parallel solve engine (:mod:`repro.parallel_solve`).

Layered like the engine itself:

1. :class:`SpeculativeSearch` -- the pure interval state machine, unit-
   tested without any processes, plus a hypothesis property showing the
   speculative search converges to the hidden optimum under *every*
   answer arrival order and injected cancellation pattern (the formal
   core of the "bit-identical to sequential" claim).
2. Clause import (:meth:`Solver.import_clause`) -- verify-on-import
   discipline: RUP-checked, proof-logged, everything else rejected.
3. Race diversification -- search-only perturbations never change
   answers.
4. End-to-end: the multiprocessing engine against the sequential
   optimizer (same certified optimum, same proven flag), worker-kill
   respawn, clause-sharing races, certification.
5. The ``SolveRequest`` shim: legacy kwargs deprecation-warn but keep
   working on every public entry point.
6. The sweep-checkpoint fingerprint regression (tuples vs JSON lists).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Allocator,
    MinimizeSumResponseTimes,
    MinimizeSumTRT,
    SolveRequest,
)
from repro.parallel_solve import (
    ProbeSpec,
    SearchInconsistency,
    SpeculativeSearch,
    apply_race_config,
    default_race_configs,
    speculative_minimize,
)
from repro.robust.checkpoint import SweepCheckpoint, _fingerprint
from repro.sat import Solver, mklit, neg
from repro.workloads import random_taskset, ring_architecture


# ---------------------------------------------------------------------------
# 1. The pure search state machine
# ---------------------------------------------------------------------------


class TestSpeculativeSearch:
    def test_first_probe_is_unconstrained_feasibility(self):
        s = SpeculativeSearch(0, 100)
        probes = s.probe_points(3)
        assert probes[0].hi is None  # the paper's initial SOLVE(phi)
        assert all(p.hi is not None for p in probes[1:])

    def test_k1_after_feasibility_is_sequential_midpoint(self):
        s = SpeculativeSearch(0, 100)
        s.resume(left=10, right=21, feasible=True)
        (p,) = s.probe_points(1)
        assert (p.lo, p.hi) == (10, (10 + 21) // 2)

    def test_probe_points_are_distinct_and_in_range(self):
        s = SpeculativeSearch(0, 100)
        s.resume(left=10, right=50, feasible=True)
        probes = s.probe_points(4)
        his = [p.hi for p in probes]
        assert len(set(his)) == len(his)
        assert all(10 <= hi < 50 for hi in his)

    def test_no_duplicate_of_in_flight_points(self):
        s = SpeculativeSearch(0, 100)
        s.resume(left=0, right=100, feasible=True)
        first = {p.hi for p in s.probe_points(3)}
        second = {p.hi for p in s.probe_points(3)}
        assert not first & second

    def test_narrow_interval_yields_fewer_probes(self):
        s = SpeculativeSearch(0, 100)
        s.resume(left=10, right=12, feasible=True)
        probes = s.probe_points(8)
        assert len(probes) == 2  # only cost 10 and 11 remain undecided
        s2 = SpeculativeSearch(0, 100)
        s2.resume(left=10, right=10, feasible=True)
        assert s2.done and s2.probe_points(8) == []

    def test_unsat_advances_left(self):
        s = SpeculativeSearch(0, 100)
        s.resume(left=0, right=100, feasible=True)
        (p,) = s.probe_points(1)
        hit, obsolete = s.on_result(p.probe_id, False, None)
        assert hit and s.left == p.hi + 1 and obsolete == []

    def test_sat_tightens_right_and_obsoletes_above(self):
        s = SpeculativeSearch(0, 100)
        s.resume(left=0, right=100, feasible=True)
        probes = s.probe_points(3)
        lowest = min(probes, key=lambda p: p.hi)
        hit, obsolete = s.on_result(lowest.probe_id, True, lowest.hi)
        assert hit and s.right == lowest.hi
        # every other in-flight probe had hi >= the witness: all obsolete
        assert set(obsolete) == {
            p.probe_id for p in probes if p is not lowest
        }

    def test_feasibility_probe_obsolete_after_first_witness(self):
        s = SpeculativeSearch(0, 100)
        probes = s.probe_points(2)
        constrained = probes[1]
        hit, obsolete = s.on_result(
            constrained.probe_id, True, constrained.hi
        )
        assert hit and probes[0].probe_id in obsolete

    def test_unconstrained_unsat_certifies_infeasible(self):
        s = SpeculativeSearch(0, 100)
        probes = s.probe_points(3)
        hit, obsolete = s.on_result(probes[0].probe_id, False, None)
        assert hit and s.feasible is False and s.done
        assert set(obsolete) == {p.probe_id for p in probes[1:]}

    def test_late_answer_is_a_miss(self):
        s = SpeculativeSearch(0, 100)
        s.resume(left=0, right=100, feasible=True)
        pa, pb = s.probe_points(2)
        s.on_result(pb.probe_id, False, None)  # left := pb.hi + 1 > pa.hi
        assert pa.hi < s.left
        hit, _ = s.on_result(pa.probe_id, False, None)
        assert hit is False
        assert (s.hits, s.misses) == (1, 1)

    def test_cancelled_probe_is_neither_hit_nor_miss(self):
        s = SpeculativeSearch(0, 100)
        s.resume(left=0, right=100, feasible=True)
        (p,) = s.probe_points(1)
        s.on_cancelled(p.probe_id)
        assert not s.in_flight and (s.hits, s.misses) == (0, 0)

    def test_witness_below_refuted_bound_raises(self):
        s = SpeculativeSearch(0, 100)
        s.resume(left=50, right=100, feasible=True)
        (p,) = s.probe_points(1)
        with pytest.raises(SearchInconsistency):
            s.on_result(p.probe_id, True, 49)

    def test_unsat_above_witness_raises(self):
        s = SpeculativeSearch(0, 100)
        s.resume(left=0, right=10, feasible=True)
        (p,) = s.probe_points(1)
        s.in_flight[p.probe_id] = ProbeSpec(p.probe_id, p.lo, 20)
        with pytest.raises(SearchInconsistency):
            s.on_result(p.probe_id, False, None)

    def test_unconstrained_unsat_after_witness_raises(self):
        s = SpeculativeSearch(0, 100)
        probes = s.probe_points(2)
        s.on_result(probes[1].probe_id, True, probes[1].hi)
        with pytest.raises(SearchInconsistency):
            s.on_result(probes[0].probe_id, False, None)

    def test_sat_without_cost_raises(self):
        s = SpeculativeSearch(0, 100)
        (p,) = s.probe_points(1)
        with pytest.raises(SearchInconsistency):
            s.on_result(p.probe_id, True, None)

    def test_unknown_probe_id_raises(self):
        s = SpeculativeSearch(0, 100)
        with pytest.raises(KeyError):
            s.on_result(999, False, None)

    def test_k1_replays_the_sequential_binary_search(self):
        """With one probe in flight the speculative search IS the
        classical BIN_SEARCH: same probe sequence, same optimum."""
        lower, upper, optimum = 0, 97, 31

        def oracle(lo, hi):
            if hi is None or hi >= optimum:
                return True, max(lo, optimum)
            return False, None

        # Reference: the sequential loop of the paper's section 5.2.
        seq_probes = []
        left, right = lower, None
        sat, cost = oracle(left, None)
        right = cost
        while left < right:
            mid = (left + right) // 2
            seq_probes.append(mid)
            sat, cost = oracle(left, mid)
            if sat:
                right = cost
            else:
                left = mid + 1

        s = SpeculativeSearch(lower, upper)
        spec_probes = []
        while not s.done:
            (p,) = s.probe_points(1)
            if p.hi is not None:
                spec_probes.append(p.hi)
            sat, cost = oracle(p.lo, p.hi)
            s.on_result(p.probe_id, sat, cost if sat else None)
        assert spec_probes == seq_probes
        assert s.left == s.right == optimum
        assert s.misses == 0


class TestSpeculativeSearchProperty:
    """Hypothesis: any arrival order, any K, any cancellation pattern
    (worker kills surface as cancellations) converges to the same
    certified interval the sequential search closes: [opt, opt]."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=60) | st.none(),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_converges_to_hidden_optimum(self, optimum, upper, k, data):
        if optimum is not None and optimum > upper:
            optimum = upper
        s = SpeculativeSearch(0, upper)
        answers = 0
        while not s.done:
            s.probe_points(k)
            assert s.in_flight, "search neither done nor dispatchable"
            answers += 1
            assert answers < 10_000, "speculative search failed to converge"
            pid = data.draw(
                st.sampled_from(sorted(s.in_flight)), label="answer"
            )
            spec = s.in_flight[pid]
            if data.draw(st.booleans(), label="kill"):
                # A dying worker group surfaces as a cancellation; the
                # engine re-dispatches the point later if still needed.
                s.on_cancelled(pid)
                continue
            refuted = optimum is None or (
                spec.hi is not None and spec.hi < optimum
            )
            if refuted:
                _, obsolete = s.on_result(pid, False, None)
            else:
                hi_cap = upper if spec.hi is None else spec.hi
                cost = data.draw(
                    st.integers(min_value=max(spec.lo, optimum),
                                max_value=max(hi_cap, optimum)),
                    label="witness",
                )
                _, obsolete = s.on_result(pid, True, cost)
            for pid2 in obsolete:
                s.on_cancelled(pid2)
        if optimum is None:
            assert s.feasible is False
        else:
            assert s.feasible is True
            assert s.left == s.right == optimum


# ---------------------------------------------------------------------------
# 2. Verify-on-import
# ---------------------------------------------------------------------------


def _pigeonhole_solver():
    """3 pigeons, 2 holes: x[p][h] = pigeon p sits in hole h."""
    s = Solver()
    x = [[s.new_var() for _ in range(2)] for _ in range(3)]
    for p in range(3):
        s.add_clause([mklit(x[p][0]), mklit(x[p][1])])
    for h in range(2):
        for p1 in range(3):
            for p2 in range(p1 + 1, 3):
                s.add_clause([neg(mklit(x[p1][h])), neg(mklit(x[p2][h]))])
    return s, x


class TestImportClause:
    def test_rup_clause_accepted_and_proof_logged(self):
        s, x = _pigeonhole_solver()
        proof = s.start_proof()
        steps_before = len(proof.steps)
        # "pigeon 0 and pigeon 1 cannot both avoid hole 0" is RUP here.
        clause = [mklit(x[0][0]), mklit(x[1][0]), neg(mklit(x[2][0]))]
        assert s.import_clause(clause)
        assert s.stats.imported_clauses == 1
        assert len(proof.steps) > steps_before  # self-contained DRUP log

    def test_non_rup_clause_rejected(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([mklit(a), mklit(b)])
        # (a) alone does not unit-propagate to a conflict: reject.
        assert not s.import_clause([mklit(a)])
        assert s.stats.rejected_imports == 1
        assert s.stats.imported_clauses == 0

    def test_unknown_variable_rejected(self):
        s = Solver()
        s.new_vars(2)
        assert not s.import_clause([mklit(99)])
        assert s.stats.rejected_imports == 1

    def test_satisfied_clause_rejected(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([mklit(a)])  # unit: a is true at level 0
        assert not s.import_clause([mklit(a)])
        assert s.stats.rejected_imports == 1

    def test_unit_import_propagates(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([mklit(a), mklit(b)])
        s.add_clause([mklit(a), neg(mklit(b))])
        # (a) is RUP: asserting not-a propagates b and not-b -> conflict.
        assert s.import_clause([mklit(a)])
        from repro.sat.literals import VAL_TRUE

        assert s.value_lit(mklit(a)) == VAL_TRUE

    def test_import_preserves_answers(self):
        s, x = _pigeonhole_solver()
        s.import_clause([mklit(x[0][0]), mklit(x[1][0]), neg(mklit(x[2][0]))])
        assert not s.solve()  # pigeonhole stays UNSAT

    def test_learn_hook_receives_learnt_clauses(self):
        s, _ = _pigeonhole_solver()
        learnt = []
        s.learn_hook = lambda lits, bt: learnt.append(tuple(lits))
        assert not s.solve()
        assert learnt  # refuting PHP(3,2) must learn something


# ---------------------------------------------------------------------------
# 3. Race diversification
# ---------------------------------------------------------------------------


class TestRaceConfigs:
    def test_racer_zero_is_pristine(self):
        cfgs = default_race_configs(4)
        assert cfgs[0].luby_base is None
        assert cfgs[0].phase == "saved"
        assert cfgs[0].jitter == 0.0

    def test_configs_are_distinct(self):
        cfgs = default_race_configs(4)
        assert len({(c.luby_base, c.phase, c.jitter) for c in cfgs}) == 4
        assert len({c.seed for c in default_race_configs(8)}) == 8

    @pytest.mark.parametrize("racer", range(4))
    def test_diversification_never_changes_the_answer(self, racer):
        cfg = default_race_configs(4)[racer]
        s, _ = _pigeonhole_solver()
        apply_race_config(s, cfg)
        assert not s.solve()
        s2 = Solver()
        vs = s2.new_vars(4)
        for v in vs:
            s2.add_clause([mklit(v), neg(mklit(vs[0]))])
        apply_race_config(s2, cfg)
        assert s2.solve()


# ---------------------------------------------------------------------------
# 4. End-to-end: engine vs sequential
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_system():
    arch = ring_architecture(3)
    tasks = random_taskset(arch, 8, 1.2, seed=3)
    return tasks, arch, MinimizeSumTRT()


@pytest.fixture(scope="module")
def sequential_result(small_system):
    tasks, arch, obj = small_system
    return Allocator(tasks, arch).minimize(
        request=SolveRequest(objective=obj)
    )


class TestParallelEngine:
    def test_parallel_matches_sequential(self, small_system,
                                         sequential_result):
        tasks, arch, obj = small_system
        seq = sequential_result
        par = Allocator(tasks, arch).minimize(
            request=SolveRequest(objective=obj, processes=2)
        )
        assert (par.cost, par.proven, par.feasible) == (
            seq.cost, seq.proven, seq.feasible
        )
        stats = par.solver_stats["parallel"]
        assert stats["workers"] == 2 and stats["respawns"] == 0
        probes = [p for p in par.outcome.probes if not p.cancelled]
        assert probes and all(p.speculative for p in probes)
        assert par.outcome.speculative_hits >= 1
        assert par.verified

    def test_race_portfolio_matches_sequential(self, small_system,
                                               sequential_result):
        tasks, arch, obj = small_system
        par = Allocator(tasks, arch).minimize(
            request=SolveRequest(objective=obj, processes=2, race=2)
        )
        assert par.cost == sequential_result.cost and par.proven
        assert par.solver_stats["parallel"]["racers"] == 2

    def test_worker_kill_respawns_and_still_proves(self, small_system,
                                                   sequential_result):
        tasks, arch, obj = small_system
        allocator = Allocator(tasks, arch)
        res = speculative_minimize(
            allocator, obj,
            SolveRequest(objective=obj, processes=2),
            faults={0: 1},  # worker 0 dies on its first probe
        )
        assert res.cost == sequential_result.cost and res.proven
        assert res.solver_stats["parallel"]["respawns"] >= 1

    def test_infeasible_is_certified_infeasible(self):
        from repro.model import TOKEN_RING, Architecture, Ecu, Medium, Task
        from repro.model import TaskSet

        arch = Architecture(
            ecus=[Ecu("p0"), Ecu("p1")],
            media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                          bit_rate=1_000_000, frame_overhead_bits=0,
                          min_slot=50, slot_overhead=10)],
        )
        tasks = TaskSet([  # 3 x 60% load on 2 ECUs: overloaded
            Task(f"t{i}", 100, {"p0": 60, "p1": 60}, 100) for i in range(3)
        ])
        seq = Allocator(tasks, arch).minimize(
            request=SolveRequest(objective=MinimizeSumTRT())
        )
        par = Allocator(tasks, arch).minimize(
            request=SolveRequest(objective=MinimizeSumTRT(), processes=2)
        )
        assert not seq.feasible and not par.feasible
        assert par.proven == seq.proven

    def test_parallel_certify_all_verified(self):
        arch = ring_architecture(3)
        tasks = random_taskset(arch, 6, 1.2, seed=1)
        obj = MinimizeSumResponseTimes()
        seq = Allocator(tasks, arch).minimize(
            request=SolveRequest(objective=obj, certify=True)
        )
        par = Allocator(tasks, arch).minimize(
            request=SolveRequest(objective=obj, processes=2, race=2,
                                 certify=True)
        )
        assert par.cost == seq.cost
        assert seq.certified and par.certified
        assert par.certificate.all_verified
        # the run had UNSAT probes, so real DRUP proofs were checked
        assert any(
            p.kind == "unsat" and p.ok for p in par.certificate.probes
        )


# ---------------------------------------------------------------------------
# 5. The SolveRequest shim
# ---------------------------------------------------------------------------


class TestLegacyShim:
    def test_minimize_legacy_kwargs_raise(self, small_system):
        tasks, arch, obj = small_system
        with pytest.raises(TypeError, match="time_limit"):
            Allocator(tasks, arch).minimize(obj, time_limit=300.0)

    def test_minimize_request_only_is_silent(self, small_system):
        import warnings

        tasks, arch, obj = small_system
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            res = Allocator(tasks, arch).minimize(
                request=SolveRequest(objective=obj)
            )
        assert res.feasible

    def test_minimize_accepts_request_positionally(self, small_system,
                                                   sequential_result):
        tasks, arch, obj = small_system
        res = Allocator(tasks, arch).minimize(SolveRequest(objective=obj))
        assert res.cost == sequential_result.cost

    def test_minimize_rejects_request_twice(self, small_system):
        tasks, arch, obj = small_system
        req = SolveRequest(objective=obj)
        with pytest.raises(TypeError):
            Allocator(tasks, arch).minimize(req, request=req)

    def test_find_feasible_legacy_kwarg_raises(self, small_system):
        tasks, arch, _ = small_system
        with pytest.raises(TypeError, match="verify"):
            Allocator(tasks, arch).find_feasible(verify=False)

    def test_supervisor_legacy_kwargs_raise(self, small_system):
        from repro.robust import Budget, SolveSupervisor

        tasks, arch, obj = small_system
        with pytest.raises(TypeError, match="SolveRequest"):
            SolveSupervisor(
                tasks, arch, obj, budget=Budget(wall_seconds=300.0)
            )
        sup = SolveSupervisor(
            tasks, arch,
            request=SolveRequest(
                objective=obj, budget=Budget(wall_seconds=300.0)
            ),
        )
        assert sup.budget is not None
        assert sup.request.objective is obj

    def test_portfolio_legacy_kwargs_raise(self, small_system):
        from repro.core.portfolio import solve_portfolio

        tasks, arch, obj = small_system
        with pytest.raises(TypeError, match="SolveRequest"):
            solve_portfolio(tasks, arch, obj, retries=0)
        res = solve_portfolio(
            tasks, arch, obj, request=SolveRequest(retries=0)
        )
        assert res.exact is not None and res.exact.feasible

    def test_unknown_legacy_kwarg_raises(self):
        from repro.core.api import reject_legacy

        with pytest.raises(TypeError, match="bogus"):
            reject_legacy("test", {"bogus": 1})

    def test_solve_entry_point_routes_parallel(self, small_system,
                                               sequential_result):
        from repro.core import solve

        tasks, arch, obj = small_system
        report = solve(
            tasks, arch, SolveRequest(objective=obj, processes=2)
        )
        assert report.cost == sequential_result.cost
        assert int(report.exit_code) == 0


# ---------------------------------------------------------------------------
# 6. Sweep-checkpoint fingerprint regression
# ---------------------------------------------------------------------------


class TestSweepFingerprint:
    def test_tuples_and_lists_fingerprint_identically(self):
        # Checkpoints round-trip through JSON, which rewrites tuples as
        # lists; the fingerprint must not care.
        assert _fingerprint([(1, 2), ("a", 3)]) == \
            _fingerprint([[1, 2], ["a", 3]])
        assert _fingerprint([{"k": (1, 2)}]) == _fingerprint([{"k": [1, 2]}])

    def test_different_params_still_differ(self):
        assert _fingerprint([(1, 2)]) != _fingerprint([(2, 1)])

    def test_resume_accepts_tuple_params_after_json_roundtrip(self,
                                                              tmp_path):
        params = [("cellA", 1), ("cellB", 2)]
        path = str(tmp_path / "sweep.json")
        ckpt = SweepCheckpoint.for_params(params, path=path)
        ckpt.record(0, value=41)
        ckpt.save()
        resumed = SweepCheckpoint.load_or_create(path, params)
        assert resumed.matches(params)
        assert resumed.get(0)["value"] == 41  # cell survives the resume

    def test_run_sweep_resumes_with_tuple_params(self, tmp_path):
        from repro.parallel import run_sweep

        params = [("x", 1), ("x", 2)]
        path = str(tmp_path / "sweep.json")
        first = run_sweep(lambda p: p[1] * 10, params, processes=None,
                          checkpoint=path)
        assert [r.value for r in first] == [10, 20]
        # Force a JSON round-trip, then resume: no cell may re-run.
        blob = json.loads(open(path).read())
        open(path, "w").write(json.dumps(blob))

        def exploding(p):
            raise AssertionError("checkpointed cell re-ran on resume")

        second = run_sweep(exploding, params, processes=None,
                           checkpoint=path)
        assert [r.value for r in second] == [10, 20]
