"""The checker's two cores against each other and a from-scratch oracle.

:class:`repro.certify.drup.RupChecker` runs its database on one of two
cores: the list core in ``drup.py`` (the reference) or the compiled
``_rup.c`` (:mod:`repro.certify.rupcore`).  They must accept and reject
the same steps, give the same verdicts and count the same RUP checks;
only the order of propagation (``propagations``, ``rebuilds``) may
differ.  Covered here:

1. **Differential property test.**  Random clause + PB databases fed as
   blocks (identity-numbered, or renumbered when their variables are
   huge) and as steps, with valid and corrupted additions, deletions of
   units, of level-0 reasons and of other clauses, and assumption
   checks; both cores and :class:`ScratchOracle` agree at every step.
2. **SAT side.**  :meth:`RupChecker.check_model` against
   :meth:`Solver.check_model` (the oracle) on random models of random
   CNF + PB formulas, and a model violating one input clause or one PB
   rejected on both cores.
3. **Which core runs.**  The fast leg of CI's tier-1 matrix
   (``REPRO_SAT_BACKEND=fast``) checks on the compiled core; without a C
   compiler every certified path runs on the list core with the same
   certificate.
"""

import os
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import ProofError, RupChecker
from repro.certify import rupcore
from repro.certify.certifier import ProbeCertifier, input_records
from repro.sat import Solver, mklit
from tests.test_certify_faults import needs_compiled
from tests.test_drup_incremental import ScratchOracle

CORES = ("pure", "fast")

VARS = 5
variable = st.integers(1, VARS)
literal = variable.flatmap(lambda v: st.sampled_from([v, -v]))
clause = st.lists(literal, min_size=1, max_size=4)
pb = st.tuples(
    st.lists(st.tuples(literal, st.integers(1, 3)), min_size=0, max_size=4),
    st.integers(-1, 6),
)
op = st.one_of(
    st.tuples(st.just("i"), clause),
    st.tuples(st.just("i"), st.lists(literal, min_size=1, max_size=1)),
    st.tuples(st.just("block"), st.lists(clause, min_size=1, max_size=6)),
    st.tuples(st.just("b"), pb),
    st.tuples(st.just("a"), st.lists(literal, max_size=3)),
    # A live clause with literals added (always RUP) or one dropped (a
    # corrupted derivation, RUP or not).
    st.tuples(st.just("a+"), st.tuples(st.integers(0, 20),
                                       st.lists(literal, max_size=2))),
    st.tuples(st.just("a-"), st.tuples(st.integers(0, 20),
                                       st.integers(0, 3))),
    # Delete a live unit, a live level-0 reason, any live clause, or a
    # clause that may be absent.
    st.tuples(st.just("d-unit"), st.integers(0, 20)),
    st.tuples(st.just("d-reason"), st.integers(0, 20)),
    st.tuples(st.just("d"), st.integers(0, 20)),
    st.tuples(st.just("d?"), clause),
    st.tuples(st.just("c"), st.lists(literal, max_size=3)),
)


def _block(clauses) -> array:
    words = array("i")
    for lits in clauses:
        words.append(len(lits))
        words.extend(lits)
    return words


def _verdict(fn):
    try:
        return fn()
    except ProofError:
        return "rejected"


class _Trio:
    """Both cores and the oracle, fed the same steps; every verdict is
    compared on arrival."""

    def __init__(self, scale: int) -> None:
        self.scale = scale
        self.checkers = [RupChecker(core) for core in CORES]
        assert [c.core_name for c in self.checkers] == list(CORES)
        self.oracle = ScratchOracle()

    def lits(self, lits):
        return [q * self.scale for q in lits]

    def each(self, fn):
        verdicts = [_verdict(lambda c=c: fn(c)) for c in self.checkers]
        assert verdicts[0] == verdicts[1], verdicts
        return verdicts[0]

    def reasons(self) -> list[list[int]]:
        """Live clauses that imply a level-0 literal (by the list core's
        own record), as DIMACS."""
        pure = self.checkers[0]
        pure._settle()
        names = pure._names
        keys = pure._core._reasons0
        return [c for c in self.oracle.clauses
                if all(abs(q) in names for q in c)
                and tuple(sorted(set(pure._internal(c)))) in keys]

    def apply(self, kind, payload) -> None:
        oracle = self.oracle
        live = oracle.clauses
        if kind == "i":
            lits = self.lits(payload)
            self.each(lambda c: c.add_step("i", lits))
            oracle.store(lits)
        elif kind == "block":
            clauses = [self.lits(c) for c in payload]
            self.each(lambda c: c.add_inputs(_block(clauses)))
            for lits in clauses:
                oracle.store(lits)
        elif kind == "b":
            terms, bound = payload
            lits = self.lits([q for q, _ in terms])
            coefs = [k for _, k in terms]
            self.each(lambda c: c.add_step("b", lits, coefs, bound))
            oracle.pbs.append((lits, coefs, bound))
        elif kind.startswith("a"):
            if kind == "a":
                lits = self.lits(payload)
            elif not live:
                return
            else:
                index, extra = payload
                base = live[index % len(live)]
                if kind == "a+":
                    lits = base + self.lits(extra)
                else:
                    lits = [q for k, q in enumerate(base) if k != extra]
            want = oracle.refutes([-q for q in lits])
            got = self.each(lambda c: c.add_step("a", lits))
            assert (got != "rejected") == want, (kind, lits)
            if want:
                oracle.store(lits)
        elif kind.startswith("d"):
            if kind == "d?":
                lits = self.lits(payload)
            else:
                pool = {"d-unit": [c for c in live if len(set(c)) == 1],
                        "d-reason": self.reasons(),
                        "d": live}[kind]
                if not pool:
                    return
                lits = list(reversed(pool[payload % len(pool)]))
            want = oracle.delete(lits)
            got = self.each(lambda c: c.add_step("d", lits))
            assert (got != "rejected") == want, (kind, lits)
        else:
            lits = self.lits(payload)
            got = self.each(lambda c: c.check_assumptions(lits))
            assert got == oracle.refutes(lits), (kind, lits)

    def finish(self) -> None:
        assert self.each(lambda c: c.check_assumptions([])) == (
            self.oracle.refutes([]))
        pure, fast = self.checkers
        for key in ("inputs", "pb_inputs", "additions", "deletions",
                    "rup_checks", "assumption_checks"):
            assert pure.stats[key] == fast.stats[key], key
        assert pure.contradiction == fast.contradiction
        cls_p, pbs_p = pure.input_formula()
        cls_f, pbs_f = fast.input_formula()
        assert sorted(map(sorted, cls_p)) == sorted(map(sorted, cls_f))
        assert pbs_p == pbs_f


@needs_compiled
class TestCoresAgainstOracle:
    @given(st.sampled_from([1, 1_000_003]), st.lists(op, min_size=1,
                                                     max_size=40))
    @settings(deadline=None, derandomize=True)
    def test_every_step_agrees(self, scale, ops):
        trio = _Trio(scale)
        for kind, payload in ops:
            trio.apply(kind, payload)
        trio.finish()

    def test_reason_and_unit_deletions_rebuild_on_both(self):
        # x1, x1 -> x2 (reason), x2 -> x3 (reason), x4 v x5 (no reason).
        for scale in (1, 1_000_003):
            trio = _Trio(scale)
            trio.apply("block", [[1], [-1, 2], [-2, 3], [4, 5]])
            trio.apply("c", [-3])
            assert [sorted(c) for c in trio.reasons()] == [
                [-1 * scale, 2 * scale], [-2 * scale, 3 * scale]]
            trio.apply("d", 3)           # a non-reason: no rebuild
            trio.apply("c", [-3])
            assert [c.stats["rebuilds"] for c in trio.checkers] == [0, 0]
            trio.apply("d-reason", 1)    # x2 -> x3
            trio.apply("c", [-3])
            trio.apply("d-unit", 0)      # x1
            trio.apply("c", [-2])
            assert [c.stats["rebuilds"] for c in trio.checkers] == [2, 2]
            trio.finish()


# ---------------------------------------------------------------------------
# SAT side
# ---------------------------------------------------------------------------


@st.composite
def formulas(draw):
    """A random CNF + PB formula on a solver, its proof started first,
    and a random model of its variables (not necessarily satisfying)."""
    n = draw(st.integers(1, 6))
    s = Solver()
    proof = s.start_proof()
    vs = s.new_vars(n)
    lit = st.tuples(st.sampled_from(vs), st.booleans()).map(
        lambda t: mklit(*t))
    for _ in range(draw(st.integers(0, 6))):
        s.add_clause(draw(st.lists(lit, min_size=1, max_size=3)))
    for _ in range(draw(st.integers(0, 2))):
        terms = draw(st.lists(st.tuples(lit, st.integers(1, 3)),
                              min_size=1, max_size=3))
        s.add_pb([q for q, _ in terms], [c for _, c in terms],
                 draw(st.integers(0, 4)))
    model = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return s, proof, model


def _records(proof):
    clauses, pbs = array("i"), array("q")
    input_records(proof.steps, clauses, pbs)
    return (proof.block, clauses), pbs


class TestModelCheck:
    @pytest.mark.parametrize("core", CORES)
    @given(formulas())
    @settings(deadline=None, derandomize=True)
    def test_agrees_with_solver_check_model(self, core, formula):
        s, proof, model = formula
        s._model = list(model)
        blocks, pbs = _records(proof)
        got = RupChecker(core).check_model(bytes(model), blocks, pbs)
        # The solver keeps no unit clause and no clause its level-0
        # units satisfy: the oracle is check_model plus those units (an
        # input set UNSAT at level 0 has no model at all).
        units_hold = all(model[lit >> 1] != (lit & 1)
                         for lit in s.trail[:s.trail_n])
        want = s.ok and units_hold and s.check_model()
        assert (got is None) == want, got

    @pytest.mark.parametrize("core", CORES)
    def test_one_violated_clause_or_pb_fails(self, core):
        s = Solver()
        a, b, c = s.new_vars(3)
        s.add_clause([mklit(a), mklit(b)])
        proof = s.start_proof()              # the clause is in the block
        s.add_clause([mklit(b, True), mklit(c)])   # an ``i`` step
        s.add_pb([mklit(a), mklit(c)], [2, 1], 2)  # a ``b`` step
        assert s.solve()
        model = bytes(s.model())
        blocks, pbs = _records(proof)
        checker = RupChecker(core)
        assert checker.check_model(model, blocks, pbs) is None
        for flip, words in ((a, "clause"), (b, "clause"), (c, "PB")):
            bad = bytearray(model)
            bad[flip] ^= 1
            s._model = [bool(x) for x in bad]
            if s.check_model():
                continue
            problem = checker.check_model(bytes(bad), blocks, pbs)
            assert problem is not None and words in problem, (flip, problem)
        # Exactly one violated record each way: the block's clause ...
        problem = checker.check_model(bytes([0, 0, 0]), blocks, pbs)
        assert problem == "input clause [1, 2] is false under the model"
        # ... and the PB alone (a and b false, c true satisfies both
        # clauses but not 2a + c >= 2).
        problem = checker.check_model(bytes([0, 1, 1]), blocks, pbs)
        assert problem is not None and problem.startswith("input PB")

    @pytest.mark.parametrize("core", CORES)
    def test_variables_past_the_model_are_false(self, core):
        checker = RupChecker(core)
        assert checker.check_model(b"\x01", [_block([[1], [-2]])]) is None
        assert checker.check_model(b"\x01", [_block([[2]])]) is not None
        assert checker.check_model(b"", [array("i", [3, 1])]) == (
            "malformed clause block")


# ---------------------------------------------------------------------------
# Which core runs
# ---------------------------------------------------------------------------


def _certified_tiny():
    """Certify a tiny system; returns (envelope, certificate, cores)."""
    from repro.core import Allocator, MinimizeTRT, SolveRequest
    from tests.test_chaos_sites import tiny_system

    cores = []
    finalize = ProbeCertifier.finalize

    def record(self):
        cores.append(self.checker.core_name)
        return finalize(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProbeCertifier, "finalize", record)
        res = Allocator(*tiny_system()).minimize(request=SolveRequest(
            objective=MinimizeTRT("ring"), certify=True))
    cert = res.certificate
    probes = [(p.kind, p.ok, p.proof_steps_checked) for p in cert.probes]
    return (res.cost, res.proven, res.status), probes, cores


class TestCoreSelection:
    @pytest.mark.skipif(
        os.environ.get("REPRO_SAT_BACKEND") != "fast",
        reason="asserts what the fast leg of CI's tier-1 matrix runs",
    )
    def test_fast_leg_checks_on_the_compiled_core(self):
        assert rupcore.rup_core_status()["available"], (
            rupcore.rup_core_status())
        checker = RupChecker()
        assert checker.core_name == "fast"
        assert checker.fallback_reason is None
        _, probes, cores = _certified_tiny()
        assert cores and set(cores) == {"fast"}
        assert any(kind == "unsat" for kind, _, _ in probes)

    def test_explicit_cores(self):
        assert RupChecker("pure").core_name == "pure"
        with pytest.raises(ValueError, match="unknown checker core"):
            RupChecker("turbo")

    def test_no_compiler_runs_every_certified_path_on_the_list_core(
            self, monkeypatch):
        import repro.native as native

        want = _certified_tiny()
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        for name in ("_lib", "_lib_path"):
            monkeypatch.setattr(rupcore, name, None)
        monkeypatch.setattr(rupcore, "_lib_reason", "")
        for name in ("auto", "fast"):
            checker = RupChecker(name)
            assert checker.core_name == "pure"
            assert "no C compiler" in checker.fallback_reason
        status = rupcore.rup_core_status()
        assert not status["available"] and "no C compiler" in status["reason"]
        envelope, probes, cores = _certified_tiny()
        assert set(cores) == {"pure"}
        assert (envelope, probes) == want[:2]
