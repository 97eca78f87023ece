"""The incremental RUP checker against a from-scratch oracle, and its two
input channels against each other.

:class:`repro.certify.drup.RupChecker` keeps a level-0 trail across
checks, propagates clauses through two watched literals and PB
constraints through slack counters, and rebuilds the trail when a
deletion may shrink it.  Three layers of tests pin it down:

1. **Differential property test.**  Random small clause + PB databases
   with interleaved input, addition, deletion and assumption-check
   steps; every verdict (accept/reject of an addition or deletion, and
   every assumption check) must equal a test-local oracle that re-derives
   the whole unit-propagation fixpoint from an empty assignment on every
   check.
2. **The rebuild path, explicitly**: deleting a unit, deleting a level-0
   reason clause, and removing a level-0 conflict by a later deletion.
3. **Text and integer channels agree** (``add_line`` vs ``add_step``) on
   real solver proofs -- PHP(3,2), a PB instance and a certified
   ring5-t10 search -- and reject the same malformed steps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import ProofError, RupChecker
from repro.certify.certifier import ProbeCertifier
from repro.sat.literals import to_dimacs
from repro.sat.proof import format_step
from tests.test_certify_faults import pb_proof, php_proof


class ScratchOracle:
    """Unit propagation from scratch on every check: assert the seed,
    then sweep every clause and PB constraint until nothing changes."""

    def __init__(self) -> None:
        self.clauses: list[list[int]] = []
        self.pbs: list[tuple[list[int], list[int], int]] = []
        self.empty = False

    def refutes(self, seed) -> bool:
        if self.empty:
            return True
        val: dict[int, bool] = {}

        def is_true(q):
            return val.get(abs(q)) == (q > 0)

        def assign(q) -> bool:
            have = val.get(abs(q))
            if have is None:
                val[abs(q)] = q > 0
                return False
            return have != (q > 0)

        for q in seed:
            if assign(q):
                return True
        changed = True
        while changed:
            changed = False
            for clause in self.clauses:
                if any(is_true(q) for q in clause):
                    continue
                free = [q for q in clause if abs(q) not in val]
                if not free:
                    return True
                if len(free) == 1:
                    assign(free[0])
                    changed = True
            for lits, coefs, bound in self.pbs:
                slack = sum(
                    c for q, c in zip(lits, coefs)
                    if abs(q) not in val or is_true(q)
                ) - bound
                if slack < 0:
                    return True
                for q, c in zip(lits, coefs):
                    if c > slack and abs(q) not in val:
                        assign(q)
                        changed = True
        return False

    def store(self, lits) -> None:
        lits = list(dict.fromkeys(lits))
        if lits:
            self.clauses.append(lits)
        else:
            self.empty = True

    def delete(self, lits) -> bool:
        key = sorted(dict.fromkeys(lits))
        for i in range(len(self.clauses) - 1, -1, -1):
            if sorted(self.clauses[i]) == key:
                del self.clauses[i]
                return True
        return False


VARS = 4
literal = st.integers(1, VARS).flatmap(lambda v: st.sampled_from([v, -v]))
clause = st.lists(literal, min_size=0, max_size=4)
pb = st.lists(
    st.tuples(literal, st.integers(1, 3)), min_size=0, max_size=4
).flatmap(lambda terms: st.tuples(st.just(terms), st.integers(-1, 6)))
step = st.one_of(
    st.tuples(st.just("i"), st.lists(literal, min_size=1, max_size=4)),
    st.tuples(st.just("i"), st.lists(literal, min_size=1, max_size=1)),
    st.tuples(st.just("b"), pb),
    st.tuples(st.just("a"), clause),
    # Delete the n-th live clause (literals reversed) or, when the
    # index runs past them, a random one that may be absent.
    st.tuples(st.just("d"), st.tuples(st.integers(0, 12), clause)),
    st.tuples(st.just("d"), st.tuples(st.integers(0, 3), clause)),
    st.tuples(st.just("c"), st.lists(literal, max_size=3)),
)


def _accepts(fn) -> bool:
    try:
        fn()
    except ProofError:
        return False
    return True


class TestAgainstScratchOracle:
    @given(st.lists(step, min_size=1, max_size=40))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_verdicts_match(self, steps):
        checker = RupChecker()
        oracle = ScratchOracle()
        for kind, payload in steps:
            if kind == "i":
                checker.add_step("i", payload)
                oracle.store(payload)
            elif kind == "b":
                terms, bound = payload
                lits = [q for q, _ in terms]
                coefs = [c for _, c in terms]
                checker.add_step("b", lits, coefs, bound)
                oracle.pbs.append((lits, coefs, bound))
            elif kind == "a":
                want = oracle.refutes([-q for q in payload])
                got = _accepts(lambda: checker.add_step("a", payload))
                assert got == want, (kind, payload)
                if want:
                    oracle.store(payload)
            elif kind == "d":
                index, fallback = payload
                live = oracle.clauses
                lits = (list(reversed(live[index])) if index < len(live)
                        else fallback)
                if not lits:
                    continue  # the empty clause is never deletable
                want = oracle.delete(lits)
                got = _accepts(lambda: checker.add_step("d", lits))
                assert got == want, (kind, lits)
            else:
                assert checker.check_assumptions(payload) == (
                    oracle.refutes(payload)), (kind, payload)
        assert checker.check_assumptions([]) == oracle.refutes([])


def _feed(checker, lines):
    for line in lines:
        checker.add_line(line)
    return checker


class TestRebuildPath:
    def test_deleting_a_unit(self):
        c = _feed(RupChecker(), ["i 1 0", "i -1 2 0"])
        assert c.check_assumptions([-2])
        c.add_line("d 1 0")
        assert not c.check_assumptions([-2])
        assert c.stats["rebuilds"] == 1
        assert c.check_assumptions([1, -2])

    # The reason clauses below arrive before (propagated at the next
    # check) or after (unit on arrival) the literals they need.
    @pytest.mark.parametrize("lines", [
        ["i -1 2 0", "i -2 3 0", "i 1 0"],
        ["i 1 0", "i -1 2 0", "i -2 3 0"],
    ])
    def test_deleting_a_binary_reason(self, lines):
        c = _feed(RupChecker(), lines)
        assert c.check_assumptions([-3])
        c.add_line("d 2 -1 0")
        assert not c.check_assumptions([-3])
        assert c.stats["rebuilds"] == 1
        assert c.check_assumptions([2, -3])

    @pytest.mark.parametrize("lines", [
        ["i -1 -2 3 0", "i -3 4 5 0", "i 1 0", "i 2 0"],
        ["i 1 0", "i 2 0", "i -1 -2 3 0", "i -3 4 5 0"],
    ])
    def test_deleting_a_long_reason(self, lines):
        c = _feed(RupChecker(), lines)
        assert c.check_assumptions([-4, -5])
        c.add_line("d 3 -2 -1 0")
        assert not c.check_assumptions([-4, -5])
        assert c.stats["rebuilds"] == 1

    def test_clause_unit_on_arrival_under_a_settled_trail(self):
        # x1, x2 are propagated before (-x1 v -x2 v x3) arrives; x3 must
        # join level 0 then, since no later assignment revisits it.
        c = _feed(RupChecker(), ["i 1 0", "i 2 0"])
        assert not c.check_assumptions([])
        c.add_line("i -1 -2 3 0")
        c.add_line("i -3 4 5 0")
        assert c.check_assumptions([-4, -5])

    def test_pb_forcing_on_arrival_under_a_settled_trail(self):
        c = _feed(RupChecker(), ["i -1 0"])
        assert not c.check_assumptions([])
        c.add_line("b 1 1 1 1 2 0")  # x1 + x2 >= 1 with x1 false
        c.add_line("i -2 3 4 0")
        assert c.check_assumptions([-3, -4])

    def test_deleting_a_non_reason_keeps_the_trail(self):
        c = _feed(RupChecker(), ["i 1 0", "i -1 2 0", "i 3 4 0"])
        assert c.check_assumptions([-2])
        c.add_line("d 4 3 0")
        assert c.check_assumptions([-2])
        assert not c.check_assumptions([-3])
        assert c.stats["rebuilds"] == 0

    def test_level0_conflict_removed_by_a_later_deletion(self):
        c = _feed(RupChecker(), ["i 1 0", "i -1 2 0", "i -1 -2 0"])
        assert c.check_assumptions([])
        c.add_line("d -2 -1 0")
        assert not c.check_assumptions([])
        assert c.stats["rebuilds"] == 1
        assert c.check_assumptions([-2])

    def test_pb_forced_literals_survive_a_rebuild(self):
        # x1 >= 1 forces x1 outright, and x1 -> x2 -> (x3 and -x3) is a
        # level-0 conflict that only the forced x1 starts.
        c = _feed(RupChecker(), ["b 1 1 1 0", "i -1 2 0", "i -2 3 0",
                                 "i -2 -3 0", "i 4 0"])
        assert c.check_assumptions([])
        c.add_line("d 4 0")
        assert c.check_assumptions([])
        assert c.stats["rebuilds"] == 1

    def test_deleting_a_unit_under_pb_propagation(self):
        # 2*x1 + x2 >= 2 forces x1 outright.  x4 is forced by
        # -x2 + x4 >= 1 once x2 holds, which the unit -x3 forces
        # through (x3 v x2) -- until that unit is deleted.
        c = _feed(RupChecker(), ["b 2 2 1 1 2 0", "i -3 0", "i 3 2 0",
                                 "b 1 1 -2 1 4 0"])
        assert c.check_assumptions([-1])
        assert c.check_assumptions([-4])
        c.add_line("d -3 0")
        assert c.check_assumptions([-1])
        assert not c.check_assumptions([-4])
        assert c.stats["rebuilds"] == 1

    def test_additions_extend_the_trail(self):
        # A learnt unit joins level 0 without a rebuild and its
        # consequences serve every later check.
        c = _feed(RupChecker(), ["i 1 2 0", "i 1 -2 0", "i -1 3 0"])
        c.add_line("1 0")
        assert c.check_assumptions([-3])
        assert c.stats["rebuilds"] == 0


class TestVariableNumbering:
    def test_sparse_huge_variables_stay_small(self):
        # Tables grow with the variables a proof uses, not with the
        # largest number in it.
        c = _feed(RupChecker(), ["i 4000000000 -3 0", "i -4000000000 0",
                                 "i 3 77 0"])
        assert c.check_assumptions([-77])
        assert not c.check_assumptions([77])
        assert len(c._val) < 1000
        clauses, _ = c.input_formula()
        assert sorted(map(sorted, clauses)) == [
            [-4000000000], [-3, 4000000000], [3, 77]]


def _int_steps(proof):
    """The certifier's integer form of a ProofLog: signed DIMACS."""
    for step in proof.steps:
        lits = [to_dimacs(q) for q in step[1]]
        if step[0] == "b":
            yield ("b", lits, list(step[2]), step[3])
        else:
            yield (step[0], lits)


def _replay(proof, checks, channel):
    """Feed ``proof`` through one channel, checking each recorded
    ``(position, assumptions)`` when that many steps are in."""
    checker = RupChecker()
    verdicts = []
    pending = list(checks)
    for n, step in enumerate(_int_steps(proof)):
        while pending and pending[0][0] == n:
            verdicts.append(checker.check_assumptions(pending.pop(0)[1]))
        if channel == "text":
            checker.add_line(format_step(proof.steps[n]))
        else:
            checker.add_step(*step)
    for _, assumptions in pending:
        verdicts.append(checker.check_assumptions(assumptions))
    return verdicts, checker.stats["rup_checks"]


@pytest.fixture(scope="module")
def ring5_proof():
    """The proof and the assumption checks of a certified ring5-t10
    search, as its certifier made them."""
    from repro.core import Allocator, SolveRequest
    from repro.core.objectives import objective_from_spec
    from repro.workloads.scaling import ring_architecture, scaling_taskset

    proofs, checks = [], []
    finalize = ProbeCertifier.finalize
    check = RupChecker.check_assumptions

    def keep_proof(self):
        proofs.append(self.proof)
        return finalize(self)

    def record(self, assumptions):
        s = self.stats
        fed = s["inputs"] + s["pb_inputs"] + s["additions"] + s["deletions"]
        checks.append((fed, list(assumptions)))
        return check(self, assumptions)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProbeCertifier, "finalize", keep_proof)
        mp.setattr(RupChecker, "check_assumptions", record)
        res = Allocator(scaling_taskset(5, 10), ring_architecture(5)).minimize(
            request=SolveRequest(objective=objective_from_spec("trt:ring"),
                                 certify=True))
    assert res.certified and len(proofs) == 1 and checks
    return proofs[0], checks


class TestTextAndIntChannels:
    @pytest.mark.parametrize("make", [php_proof, pb_proof])
    def test_small_solver_proofs_agree(self, make):
        proof = make()
        text = _replay(proof, [(len(proof), [])], "text")
        ints = _replay(proof, [(len(proof), [])], "int")
        assert text == ints
        assert text[0] == [True] and text[1] > 0

    def test_certified_ring5_proof_agrees(self, ring5_proof):
        proof, checks = ring5_proof
        text = _replay(proof, checks, "text")
        ints = _replay(proof, checks, "int")
        assert text == ints
        assert all(text[0]) and text[1] > 0

    @pytest.mark.parametrize("setup, line, step", [
        ([], "i 1 0 2 0", ("i", [1, 0, 2])),
        ([], "5 0 0", ("a", [5, 0])),
        ([], "b 2 1 1 1 0", ("b", [1], [1, 1], 2)),
        ([], "b 2 0 1 0", ("b", [1], [0], 2)),
        ([], "b 2 -1 1 0", ("b", [1], [-1], 2)),
        (["i 1 2 0"], "d 1 3 0", ("d", [1, 3])),
        (["i 1 2 0"], "1 0", ("a", [1])),
    ])
    def test_malformed_steps_rejected_on_both(self, setup, line, step):
        with pytest.raises(ProofError):
            _feed(RupChecker(), setup).add_line(line)
        with pytest.raises(ProofError):
            _feed(RupChecker(), setup).add_step(*step)

    def test_int_only_malformations(self):
        with pytest.raises(ProofError):
            RupChecker().add_step("x", [1])
        with pytest.raises(ProofError):
            RupChecker().add_step("b", [1, 2])  # no coefficients
