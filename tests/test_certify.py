"""Tests for the certification subsystem (:mod:`repro.certify`).

Covers the standalone RUP checker, solver proof round-trips (clauses and
pseudo-Boolean constraints, outright UNSAT and assumption cores), witness
auditing, and end-to-end certified optimization on scaled table-1 /
table-4 workloads for both the incremental and the rebuild strategy.
"""

import pytest

from repro.certify import (
    ProofError,
    RupChecker,
    audit_witness,
    check_proof_lines,
)
from repro.core import Allocator, MinimizeSumTRT, MinimizeTRT, SolveRequest
from repro.sat import Solver, mklit, neg
from repro.workloads import (
    architecture_a,
    tindell_architecture,
    tindell_partition,
)

# A tiny hand-written proof used by several tests:
# x1 + x2 + x3 >= 2 together with pairwise at-most-one is UNSAT.
PB_PROOF = [
    "b 2 1 1 1 2 1 3 0",
    "i -1 -2 0",
    "i -1 -3 0",
    "i -2 -3 0",
    "-1 0",
    "-2 0",
    "0",
]


class TestRupCheckerClauses:
    def test_contradictory_units_refute(self):
        c = RupChecker()
        c.add_line("i 1 0")
        c.add_line("i -1 0")
        assert c.check_assumptions([])

    def test_valid_rup_addition_accepted(self):
        c = RupChecker()
        for line in ("i 1 2 0", "i 1 -2 0", "i -1 2 0", "i -1 -2 0"):
            c.add_line(line)
        c.add_line("1 0")  # RUP: assert -1, propagate 2 and -2
        c.add_line("0")
        assert c.contradiction
        assert c.check_assumptions([])

    def test_invalid_addition_rejected(self):
        c = RupChecker()
        c.add_line("i 1 2 0")
        with pytest.raises(ProofError):
            c.add_line("1 0")  # assert -1 only forces 2: no conflict

    def test_deletion_takes_effect(self):
        c = RupChecker()
        c.add_line("i 1 2 0")
        c.add_line("i 1 -2 0")
        c.add_line("d 2 1 0")  # literal order irrelevant
        with pytest.raises(ProofError):
            c.add_line("1 0")  # the remaining clause cannot refute -1

    def test_deleting_unknown_clause_rejected(self):
        c = RupChecker()
        c.add_line("i 1 2 0")
        with pytest.raises(ProofError):
            c.add_line("d 1 3 0")

    def test_comments_and_blank_lines_ignored(self):
        c = RupChecker()
        c.add_line("c a comment 0")
        c.add_line("")
        assert c.stats["inputs"] == 0

    def test_duplicate_literals_deduplicated(self):
        c = RupChecker()
        c.add_line("i 1 1 0")  # pre-simplification input
        assert c.check_assumptions([-1])

    @pytest.mark.parametrize("line", [
        "i 1 2",        # missing terminating 0
        "i 1 x 0",      # non-integer literal
        "i 1 0 2 0",    # embedded zero
        "b 2 1 1 1 0",  # odd coefficient/literal list
        "b 2 0 1 0",    # non-positive coefficient
        "b 0",          # empty PB constraint
    ])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ProofError):
            RupChecker().add_line(line)


class TestRupCheckerPB:
    def test_pb_slack_conflict(self):
        c = RupChecker()
        c.add_line("b 2 1 1 1 2 1 3 0")  # x1 + x2 + x3 >= 2
        assert c.check_assumptions([-1, -2])
        assert not c.check_assumptions([-1])

    def test_pb_forces_literals(self):
        c = RupChecker()
        c.add_line("b 2 1 1 1 2 1 3 0")
        c.add_line("i -2 0")
        # With x2 false the PB forces x1 and x3.
        assert c.check_assumptions([-1])
        assert c.check_assumptions([-3])

    def test_pb_static_unit(self):
        c = RupChecker()
        c.add_line("b 2 2 1 1 2 0")  # 2*x1 + x2 >= 2 forces x1
        assert c.check_assumptions([-1])

    def test_pb_infeasible_bound_is_contradiction(self):
        c = RupChecker()
        c.add_line("b 3 1 1 1 2 0")  # sum of coefficients < bound
        assert c.contradiction
        assert c.check_assumptions([])

    def test_negative_literals_in_pb(self):
        c = RupChecker()
        c.add_line("b 2 1 -1 1 -2 0")  # (1-x1) + (1-x2) >= 2
        assert c.check_assumptions([1])
        assert not RupChecker().check_assumptions([1])

    def test_hand_written_pb_proof(self):
        checker = check_proof_lines(PB_PROOF)
        assert checker.stats["rup_checks"] == 3

    def test_check_proof_lines_requires_refutation(self):
        with pytest.raises(ProofError):
            check_proof_lines(["i 1 2 0"])


class TestSolverProofRoundTrip:
    def _php(self, s, n, m, guard=None):
        prefix = [neg(mklit(guard))] if guard is not None else []
        x = [[s.new_var() for _ in range(m)] for _ in range(n)]
        for p in range(n):
            s.add_clause(prefix + [mklit(x[p][h]) for h in range(m)])
        for h in range(m):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    s.add_clause(
                        [neg(mklit(x[p1][h])), neg(mklit(x[p2][h]))]
                    )
        return x

    def test_outright_unsat_proof_checks(self):
        s = Solver()
        self._php(s, 4, 3)
        proof = s.start_proof()
        assert not s.solve()
        check_proof_lines(proof.to_lines())

    def test_assumption_unsat_proof_checks(self):
        from repro.sat.literals import to_dimacs

        s = Solver()
        g = s.new_var()
        self._php(s, 4, 3, guard=g)
        proof = s.start_proof()
        assert not s.solve(assumptions=[mklit(g)])
        check_proof_lines(
            proof.to_lines(), assumptions=[to_dimacs(mklit(g))]
        )

    def test_pb_heavy_unsat_proof_checks(self):
        s = Solver()
        vs = s.new_vars(3)
        lits = [mklit(v) for v in vs]
        s.add_pb(lits, [1, 1, 1], 2)  # at least two true
        for i in range(3):
            for j in range(i + 1, 3):
                s.add_clause([neg(lits[i]), neg(lits[j])])
        proof = s.start_proof()
        assert not s.solve()
        checker = check_proof_lines(proof.to_lines())
        assert checker.stats["pb_inputs"] == 1

    def test_start_proof_snapshots_existing_database(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([mklit(a), mklit(b)])
        s.add_clause([mklit(a)])
        assert s.solve()  # unit lands on the level-0 trail
        proof = s.start_proof()
        # The snapshot is self-contained: inputs cover clauses and the
        # already-implied trail literals.
        s.add_clause([neg(mklit(a))])
        assert not s.solve()
        check_proof_lines(proof.to_lines())

    def test_learnt_clause_deletion_logged_and_checkable(self):
        s = Solver()
        s.max_learnts = 20.0  # force DB reduction on this small instance
        self._php(s, 6, 5)
        proof = s.start_proof()
        assert not s.solve()
        assert proof.deletions > 0  # DB reduction actually fired
        check_proof_lines(proof.to_lines())


class TestWitnessAudit:
    def test_audit_accepts_solver_answer(self):
        tasks = tindell_partition(6)
        arch = tindell_architecture()
        res = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
        assert res.feasible
        report = audit_witness(
            tasks, arch, res.allocation,
            objective=MinimizeTRT("ring"), claimed_cost=res.cost,
        )
        assert report.ok, report.problems
        assert report.recomputed_cost == res.cost

    def test_audit_rejects_wrong_cost_claim(self):
        tasks = tindell_partition(6)
        arch = tindell_architecture()
        res = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
        report = audit_witness(
            tasks, arch, res.allocation,
            objective=MinimizeTRT("ring"), claimed_cost=res.cost - 1,
        )
        assert not report.ok
        assert any("cost" in p for p in report.problems)

    def test_audit_rejects_missing_allocation(self):
        tasks = tindell_partition(6)
        arch = tindell_architecture()
        report = audit_witness(tasks, arch, None)
        assert not report.ok


class TestCertifiedOptimization:
    @pytest.mark.parametrize("reuse", [True, False],
                             ids=["incremental", "rebuild"])
    def test_table1_scaled_fully_certified(self, reuse):
        tasks = tindell_partition(7)
        arch = tindell_architecture()
        res = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"),
            request=SolveRequest(reuse_learned=reuse, certify=True),
        )
        assert res.feasible
        cert = res.certificate
        assert cert is not None
        assert cert.all_verified, cert.summary()
        assert res.certified
        # The binary search must have closed the interval from both
        # sides: at least one audited SAT and one proof-checked UNSAT.
        assert cert.sat_probes > 0
        assert cert.unsat_probes > 0
        assert cert.proof_lines > 0
        assert all(p.ok for p in cert.probes)

    @pytest.mark.parametrize("reuse", [True, False],
                             ids=["incremental", "rebuild"])
    def test_table4_scaled_fully_certified(self, reuse):
        tasks = tindell_partition(6, n_ecus=4)
        arch = architecture_a()
        res = Allocator(tasks, arch).minimize(
            MinimizeSumTRT(),
            request=SolveRequest(reuse_learned=reuse, certify=True),
        )
        assert res.feasible
        cert = res.certificate
        assert cert is not None
        assert cert.all_verified, cert.summary()
        assert cert.unsat_probes > 0

    def test_sat_audit_recomputes_cost(self):
        tasks = tindell_partition(7)
        arch = tindell_architecture()
        res = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"), request=SolveRequest(certify=True)
        )
        finals = [
            p for p in res.certificate.probes
            if p.kind == "sat" and p.claimed_cost == res.cost
        ]
        assert finals
        assert all(p.recomputed_cost == res.cost for p in finals)

    def test_uncertified_run_has_no_certificate(self):
        tasks = tindell_partition(6)
        arch = tindell_architecture()
        res = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
        assert res.certificate is None
        assert not res.certified

    def test_find_feasible_sat_certified(self):
        tasks = tindell_partition(6)
        arch = tindell_architecture()
        res = Allocator(tasks, arch).find_feasible(
            request=SolveRequest(certify=True))
        assert res.feasible
        assert res.certified
        assert res.certificate.sat_probes == 1

    def test_find_feasible_infeasible_proof_checked(self):
        from repro.model import TOKEN_RING, Architecture, Ecu, Medium, Task
        from repro.model import TaskSet

        arch = Architecture(
            ecus=[Ecu("p0"), Ecu("p1")],
            media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                          bit_rate=1_000_000, frame_overhead_bits=0,
                          min_slot=50, slot_overhead=10)],
        )
        tasks = TaskSet([
            Task(f"t{i}", 100, {"p0": 60, "p1": 60}, 100) for i in range(3)
        ])
        res = Allocator(tasks, arch).find_feasible(
            request=SolveRequest(certify=True))
        assert not res.feasible
        cert = res.certificate
        assert cert.all_verified, cert.summary()
        assert cert.unsat_probes == 1
        assert cert.probes[0].proof_steps_checked >= 0

    def test_certificate_stats_dict_shape(self):
        tasks = tindell_partition(6)
        arch = tindell_architecture()
        res = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"), request=SolveRequest(certify=True)
        )
        data = res.certificate.to_dict()
        for key in ("probes", "sat_probes", "unsat_probes",
                    "skipped_probes", "verified", "proof_lines",
                    "proof_steps_checked", "check_seconds",
                    "audit_seconds", "probe_verdicts"):
            assert key in data, key
        assert data["verified"] is True
        assert len(data["probe_verdicts"]) == data["probes"]


class TestCertifierFinalize:
    def test_bad_trailing_step_fails_the_certificate(self):
        # A proof step logged after the last probe that fails its RUP
        # check is a failed certificate, not an exception out of the
        # certified solve.
        from types import SimpleNamespace

        from repro.certify import ProbeCertifier

        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([mklit(a), mklit(b)])
        certifier = ProbeCertifier(
            None, None, SimpleNamespace(solver=SimpleNamespace(sat=s)))
        certifier.proof.log_add([neg(mklit(a))])
        result = certifier.finalize()
        assert not result.all_verified
        [failure] = result.failures
        assert failure.kind == "proof"
        assert failure.detail == (
            "proof check failed: addition [-1] is not a reverse-unit-"
            "propagation consequence of the database")
        data = result.to_dict()
        assert data["verified"] is False
        assert data["probe_verdicts"] == [failure.to_dict()]
        assert result.proof_lines == 2


class TestDiagnosisProvenance:
    def test_infeasible_core_carries_details_and_tags(self):
        from repro.core.diagnose import diagnose
        from repro.model import TOKEN_RING, Architecture, Ecu, Medium, Task
        from repro.model import TaskSet

        arch = Architecture(
            ecus=[Ecu("p0"), Ecu("p1")],
            media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                          bit_rate=1_000_000, frame_overhead_bits=0,
                          min_slot=50, slot_overhead=10)],
        )
        tasks = TaskSet([
            Task("a", 2000, {"p0": 900, "p1": 900}, 1000,
                 separated_from=frozenset({"b"})),
            Task("b", 2000, {"p0": 900, "p1": 900}, 1000),
            Task("c", 2000, {"p0": 900, "p1": 900}, 1000),
        ])
        diag = diagnose(tasks, arch)
        assert not diag.feasible
        assert diag.core
        # Every core label resolves to a human sentence...
        for sentence in diag.describe():
            assert sentence
        for label in diag.core:
            if label.startswith("deadline:"):
                assert "deadline" in diag.details[label]
        # ...and the provenance tag census covers the core labels.
        assert diag.tagged_clauses
        assert all(n > 0 for n in diag.tagged_clauses.values())


class TestProofSpoolNamespacing:
    """Concurrent certified solves may share one ``--proof-log``
    directory: each spool is namespaced by request fingerprint, pid and
    a per-process sequence, so artifacts never collide (the regression
    was two simultaneous solves clobbering one file)."""

    def test_plain_file_path_used_verbatim(self, tmp_path):
        from repro.certify.proofio import resolve_spool_path

        target = str(tmp_path / "one.proof")
        assert resolve_spool_path(target, "fp") == target

    def test_directory_paths_never_collide(self, tmp_path):
        import os

        from repro.certify.proofio import resolve_spool_path

        d = str(tmp_path)
        paths = {resolve_spool_path(d, "same-fp") for _ in range(16)}
        assert len(paths) == 16
        assert all(os.path.dirname(p) == d for p in paths)
        assert all("same-fp" in os.path.basename(p) for p in paths)

    def test_two_simultaneous_certified_solves_share_directory(
        self, tmp_path
    ):
        import os
        import threading

        from repro.certify.proofio import load_proof
        from repro.core import SolveRequest

        spool_dir = tmp_path / "proofs"
        spool_dir.mkdir()
        arch = tindell_architecture()
        results = [None, None]

        def run(i):
            # Different task counts => different systems under identical
            # solve options (and thus identical request fingerprints):
            # exactly the collision case.
            tasks = tindell_partition(7 - i)
            req = SolveRequest(
                objective=MinimizeTRT("ring"), certify=True,
                proof_log=str(spool_dir) + os.sep,
            )
            results[i] = Allocator(tasks, arch).minimize(request=req)

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        arts = []
        for res in results:
            assert res is not None and res.feasible
            cert = res.certificate
            assert cert is not None and cert.all_verified, cert.summary()
            assert cert.proof_artifact is not None
            arts.append(cert.proof_artifact)
        assert arts[0] != arts[1]
        assert {os.path.dirname(a) for a in arts} == {str(spool_dir)}
        # Both artifacts are intact, complete proofs -- nothing was
        # overwritten by the concurrent writer.
        for art in arts:
            assert load_proof(art)
