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
3. **Text, integer and block channels agree** (``add_line``,
   ``add_step`` and ``add_inputs``, the flat input block a
   :class:`ProofLog` snapshot is fed as) on real solver proofs --
   PHP(3,2), a PB instance and a certified ring5-t10 search -- and on
   every hand-written and corrupted proof here and in
   ``tests/test_certify_faults.py``, and reject the same malformed
   steps.  The text of two certified proofs is pinned by digest.

Layers 2 and 3 run on each of the checker's cores: the classes use the
list core, their ``...Compiled`` subclasses the compiled one
(``tests/test_rup_core.py`` runs the two against each other).
"""

import hashlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import ProofError, RupChecker
from repro.certify.certifier import ProbeCertifier
from repro.sat.literals import to_dimacs
from repro.robust import PROOF_CORRUPTIONS, corrupt_proof_line
from repro.sat.proof import format_step
from tests.test_certify_faults import (
    PB_LINES,
    PHP_LINES,
    TestGuaranteedProofRejections,
    _checker_accepts,
    needs_compiled,
    pb_proof,
    php_proof,
)
from tests.test_clause_loader import expand_steps


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


def _match_oracle(steps, blocks: bool) -> None:
    """Run ``steps`` through a checker and the oracle, comparing every
    verdict.  With ``blocks``, each run of consecutive input clauses
    goes in as one :meth:`RupChecker.add_inputs` block: the first one
    numbered by identity, later ones renumbered."""
    checker = RupChecker()
    oracle = ScratchOracle()
    run: list[list[int]] = []
    for kind, payload in steps:
        if kind == "i":
            if blocks:
                run.append(payload)
            else:
                checker.add_step("i", payload)
            oracle.store(payload)
            continue
        if run:
            checker.add_inputs(_block(run))
            run = []
        if kind == "b":
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
    if run:
        checker.add_inputs(_block(run))
    assert checker.check_assumptions([]) == oracle.refutes([])


class TestAgainstScratchOracle:
    @given(st.lists(step, min_size=1, max_size=40))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_verdicts_match(self, steps):
        _match_oracle(steps, blocks=False)

    @given(st.lists(step, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_block_channel_verdicts_match(self, steps):
        _match_oracle(steps, blocks=True)


def _block(clauses) -> array:
    """Clauses as one flat input block of length-prefixed records."""
    words = array("i")
    for lits in clauses:
        words.append(len(lits))
        words.extend(lits)
    return words


def _split_text(lines):
    """A text proof as the certifier feeds a snapshot: its input clause
    lines as one block, then the other lines in order."""
    clauses, rest = [], []
    for line in lines:
        tokens = line.split()
        if tokens and tokens[0] == "i":
            clauses.append([int(t) for t in tokens[1:-1]])
        else:
            rest.append(line)
    return _block(clauses), rest


def _feed(checker, lines):
    for line in lines:
        checker.add_line(line)
    return checker


def _feed_block(checker, lines):
    block, rest = _split_text(lines)
    checker.add_inputs(block)
    return _feed(checker, rest)


class TestRebuildPath:
    #: How each test's opening lines reach the checker, and its core.
    feed = staticmethod(_feed)
    core = "pure"

    def test_deleting_a_unit(self):
        c = self.feed(RupChecker(self.core), ["i 1 0", "i -1 2 0"])
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
        c = self.feed(RupChecker(self.core), lines)
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
        c = self.feed(RupChecker(self.core), lines)
        assert c.check_assumptions([-4, -5])
        c.add_line("d 3 -2 -1 0")
        assert not c.check_assumptions([-4, -5])
        assert c.stats["rebuilds"] == 1

    def test_clause_unit_on_arrival_under_a_settled_trail(self):
        # x1, x2 are propagated before (-x1 v -x2 v x3) arrives; x3 must
        # join level 0 then, since no later assignment revisits it.
        c = self.feed(RupChecker(self.core), ["i 1 0", "i 2 0"])
        assert not c.check_assumptions([])
        c.add_line("i -1 -2 3 0")
        c.add_line("i -3 4 5 0")
        assert c.check_assumptions([-4, -5])

    def test_pb_forcing_on_arrival_under_a_settled_trail(self):
        c = self.feed(RupChecker(self.core), ["i -1 0"])
        assert not c.check_assumptions([])
        c.add_line("b 1 1 1 1 2 0")  # x1 + x2 >= 1 with x1 false
        c.add_line("i -2 3 4 0")
        assert c.check_assumptions([-3, -4])

    def test_deleting_a_non_reason_keeps_the_trail(self):
        c = self.feed(RupChecker(self.core), ["i 1 0", "i -1 2 0", "i 3 4 0"])
        assert c.check_assumptions([-2])
        c.add_line("d 4 3 0")
        assert c.check_assumptions([-2])
        assert not c.check_assumptions([-3])
        assert c.stats["rebuilds"] == 0

    def test_level0_conflict_removed_by_a_later_deletion(self):
        c = self.feed(RupChecker(self.core), ["i 1 0", "i -1 2 0", "i -1 -2 0"])
        assert c.check_assumptions([])
        c.add_line("d -2 -1 0")
        assert not c.check_assumptions([])
        assert c.stats["rebuilds"] == 1
        assert c.check_assumptions([-2])

    def test_pb_forced_literals_survive_a_rebuild(self):
        # x1 >= 1 forces x1 outright, and x1 -> x2 -> (x3 and -x3) is a
        # level-0 conflict that only the forced x1 starts.
        c = self.feed(RupChecker(self.core), [
            "b 1 1 1 0", "i -1 2 0", "i -2 3 0", "i -2 -3 0", "i 4 0"])
        assert c.check_assumptions([])
        c.add_line("d 4 0")
        assert c.check_assumptions([])
        assert c.stats["rebuilds"] == 1

    def test_deleting_a_unit_under_pb_propagation(self):
        # 2*x1 + x2 >= 2 forces x1 outright.  x4 is forced by
        # -x2 + x4 >= 1 once x2 holds, which the unit -x3 forces
        # through (x3 v x2) -- until that unit is deleted.
        c = self.feed(RupChecker(self.core), [
            "b 2 2 1 1 2 0", "i -3 0", "i 3 2 0", "b 1 1 -2 1 4 0"])
        assert c.check_assumptions([-1])
        assert c.check_assumptions([-4])
        c.add_line("d -3 0")
        assert c.check_assumptions([-1])
        assert not c.check_assumptions([-4])
        assert c.stats["rebuilds"] == 1

    def test_additions_extend_the_trail(self):
        # A learnt unit joins level 0 without a rebuild and its
        # consequences serve every later check.
        c = self.feed(RupChecker(self.core), ["i 1 2 0", "i 1 -2 0", "i -1 3 0"])
        c.add_line("1 0")
        assert c.check_assumptions([-3])
        assert c.stats["rebuilds"] == 0


class TestRebuildPathThroughBlock(TestRebuildPath):
    """The same checks, the opening input clauses fed as one block."""

    feed = staticmethod(_feed_block)


@needs_compiled
class TestRebuildPathCompiled(TestRebuildPath):
    core = "fast"


@needs_compiled
class TestRebuildPathThroughBlockCompiled(TestRebuildPathThroughBlock):
    core = "fast"


class TestVariableNumbering:
    def test_sparse_huge_variables_stay_small(self):
        # Tables grow with the variables a proof uses, not with the
        # largest number in it.
        c = _feed(RupChecker(), ["i 4000000000 -3 0", "i -4000000000 0",
                                 "i 3 77 0"])
        assert c.check_assumptions([-77])
        assert not c.check_assumptions([77])
        assert len(c._core.val) < 1000
        clauses, _ = c.input_formula()
        assert sorted(map(sorted, clauses)) == [
            [-4000000000], [-3, 4000000000], [3, 77]]


def _int_step(step):
    """The certifier's integer form of a ProofLog step: signed DIMACS."""
    lits = [to_dimacs(q) for q in step[1]]
    if step[0] == "b":
        return ("b", lits, list(step[2]), step[3])
    return (step[0], lits)


def _replay(proof, checks, channel, core=None):
    """Feed ``proof`` through one channel, checking each recorded
    ``(position, assumptions)`` when that many steps are in.  The
    ``block`` channel feeds the input snapshot as the certifier does,
    in one :meth:`RupChecker.add_inputs` call before the other steps."""
    checker = RupChecker(core)
    verdicts = []
    pending = list(checks)
    if channel == "block":
        checker.add_inputs(proof.block)
        steps = enumerate(proof.steps, proof.block_records)
        assert pending[0][0] >= proof.block_records + proof.split_steps
    else:
        steps = enumerate(expand_steps(proof))
    for n, step in steps:
        while pending and pending[0][0] == n:
            verdicts.append(checker.check_assumptions(pending.pop(0)[1]))
        if channel == "text":
            checker.add_line(format_step(step))
        else:
            checker.add_step(*_int_step(step))
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
    core = "pure"

    @pytest.mark.parametrize("make", [php_proof, pb_proof])
    def test_small_solver_proofs_agree(self, make):
        proof = make()
        text = _replay(proof, [(len(proof), [])], "text")
        ints = _replay(proof, [(len(proof), [])], "int")
        assert text == ints == _replay(proof, [(len(proof), [])], "block")
        assert text[0] == [True] and text[1] > 0

    def test_certified_ring5_proof_agrees(self, ring5_proof):
        proof, checks = ring5_proof
        text = _replay(proof, checks, "text", self.core)
        ints = _replay(proof, checks, "int", self.core)
        assert text == ints == _replay(proof, checks, "block", self.core)
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
            _feed(RupChecker(self.core), setup).add_line(line)
        with pytest.raises(ProofError):
            _feed(RupChecker(self.core), setup).add_step(*step)

    def test_int_only_malformations(self):
        with pytest.raises(ProofError):
            RupChecker(self.core).add_step("x", [1])
        with pytest.raises(ProofError):
            RupChecker(self.core).add_step("b", [1, 2])  # no coefficients


@needs_compiled
class TestTextAndIntChannelsCompiled(TestTextAndIntChannels):
    core = "fast"


def _block_accepts(lines, core=None):
    """:func:`_checker_accepts` with the input clauses fed as a block."""
    checker = RupChecker(core)
    try:
        _feed_block(checker, lines)
        if not checker.check_assumptions([]):
            return None
    except ProofError:
        return None
    return checker


class TestBlockChannel:
    """``RupChecker.add_inputs`` against the per-step channels."""

    core = "pure"

    @pytest.mark.parametrize("base", ["php", "pb", "explicit"])
    def test_every_corruption_gets_the_same_verdict(self, base):
        lines = {"php": PHP_LINES, "pb": PB_LINES,
                 "explicit": TestGuaranteedProofRejections.LINES}[base]
        rejected = 0
        for index in range(len(lines)):
            for mode in PROOF_CORRUPTIONS:
                bad = corrupt_proof_line(lines, index, mode)
                steps = _checker_accepts(bad, self.core)
                block = _block_accepts(bad, self.core)
                assert (steps is None) == (block is None), (index, mode)
                if steps is not None:
                    assert (block.stats["rup_checks"]
                            == steps.stats["rup_checks"])
                    assert (sorted(map(sorted, block.input_formula()[0]))
                            == sorted(map(sorted, steps.input_formula()[0])))
                rejected += steps is None
        assert rejected > 0
        assert _block_accepts(lines, self.core) is not None

    @pytest.mark.parametrize("words, match", [
        ([2, 1, 2, 3, 1], "word 3 has size 3"),   # size past the end
        ([1, 5, -4, 1], "word 2 has size -4"),    # negative size
        ([2, 1, 0, 1, 3], "zero literal"),      # zero inside a record
    ])
    def test_malformed_blocks_rejected(self, words, match):
        checker = RupChecker(self.core)
        with pytest.raises(ProofError, match=match):
            checker.add_inputs(array("i", words))
        assert checker.stats["inputs"] == 0
        assert checker.input_formula() == ([], [])

    def test_empty_record_is_the_empty_clause(self):
        checker = RupChecker(self.core)
        checker.add_inputs(array("i", [1, 1, 0]))
        assert checker.contradiction and checker.check_assumptions([])
        assert checker.stats["inputs"] == 2

    def test_duplicate_literals_are_deduplicated(self):
        # (x1 v x1) is the unit x1, (-x1 v x2 v x3 v x2 v -x1) the
        # clause (-x1 v x2 v x3) and (-x3 v x4 v -x3) the binary
        # (-x3 v x4): the database the per-step channel builds.
        clauses = [[1, 1], [-1, 2, 3, 2, -1], [-3, 4, -3]]
        block = RupChecker(self.core)
        block.add_inputs(_block(clauses))
        steps = RupChecker(self.core)
        for lits in clauses:
            steps.add_step("i", lits)
        assert block.input_formula() == steps.input_formula()
        assert (list(map(sorted, block.input_formula()[0]))
                == [[1], [-1, 2, 3], [-3, 4]])
        for seed in ([], [-2], [-2, -4], [-4], [-3]):
            assert (block.check_assumptions(seed)
                    == steps.check_assumptions(seed)), seed
        assert block.check_assumptions([-2, -4])

    def test_small_block_is_numbered_by_identity(self):
        checker = RupChecker(self.core)
        checker.add_inputs(_block([[1, -3], [3, 2], [-2]]))
        assert checker._names == [0, 1, 2, 3]
        assert checker._internal([-3, 2]) == [-3, 2]
        assert checker.check_assumptions([-1])

    def test_huge_variable_is_renumbered(self):
        # max |lit| (2e9) is far beyond the block's 7 words: the block
        # is renumbered in order of first appearance, so the tables
        # hold the 3 variables it uses (grown to the minimum room of
        # 32), not 2e9.
        grow = RupChecker._grow

        def bounded_grow(self, need):
            # Fail before a wrong path could allocate 2e9 slots.
            assert need <= 7, need
            return grow(self, need)

        checker = RupChecker(self.core)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RupChecker, "_grow", bounded_grow)
            checker.add_inputs(
                _block([[2000000000, -3], [-2000000000], [3]]))
        assert checker._names == [0, 2000000000, 3]
        assert checker._nvars == 32 and len(checker._core.val) == 65
        assert checker.check_assumptions([])
        assert (sorted(map(sorted, checker.input_formula()[0]))
                == [[-2000000000], [-3, 2000000000], [3]])

    def test_block_past_32_bits_is_renumbered(self):
        # Words that do not fit a C int reach the compiled core
        # renumbered, through the list core's reader.
        checker = RupChecker(self.core)
        checker.add_inputs([2, 4000000000, -3, 1, -4000000000, 1, 3])
        assert checker._names == [0, 4000000000, 3]
        assert checker.check_assumptions([])
        with pytest.raises(ProofError, match="zero literal"):
            RupChecker(self.core).add_inputs([2, 4000000000, 0])

    def test_second_block_is_renumbered(self):
        # A checker that has variables already renumbers a later block,
        # even one small enough for identity numbering.
        checker = RupChecker(self.core)
        checker.add_step("i", [7, 8])
        checker.add_inputs(_block([[-7], [2, -8]]))
        assert checker._names == [0, 7, 8, 2]
        assert checker.check_assumptions([-2])
        assert not checker.check_assumptions([2])


@needs_compiled
class TestBlockChannelCompiled(TestBlockChannel):
    core = "fast"


#: sha256 of ``"\n".join(proof.lines())`` for two certified searches,
#: recorded with the per-clause snapshot the block replaced: the text
#: artifact (and so the proof spool) is unchanged byte for byte.
PROOF_TEXT_DIGESTS = {
    "ring5-t10": (
        "ac4af3d732bef994ba0ff26a6b7a008ac7d4b96e3921c6a69cca3fb6cd7ec46e"),
    "ring3-t6-pb": (
        "50654d50e14f4ef20bbd94f3887d6e0c2868b0ee9db30b088d4df4a94de55d1f"),
}


class TestProofText:
    def test_ring5_proof_text_is_pinned(self, ring5_proof):
        proof, _ = ring5_proof
        text = "\n".join(proof.lines())
        assert (hashlib.sha256(text.encode()).hexdigest()
                == PROOF_TEXT_DIGESTS["ring5-t10"])
        assert (len(proof), proof.inputs, proof.pb_inputs,
                proof.additions) == (43709, 43480, 0, 229)

    def test_pb_mode_proof_text_is_pinned(self):
        from repro.core import Allocator, EncoderConfig, SolveRequest
        from repro.core.objectives import objective_from_spec
        from repro.workloads.scaling import ring_architecture, scaling_taskset

        proofs = []
        finalize = ProbeCertifier.finalize

        def keep_proof(self):
            proofs.append(self.proof)
            return finalize(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ProbeCertifier, "finalize", keep_proof)
            res = Allocator(scaling_taskset(3, 6), ring_architecture(3),
                            EncoderConfig(pb_mode=True)).minimize(
                request=SolveRequest(
                    objective=objective_from_spec("trt:ring"),
                    certify=True))
        proof = proofs[0]
        text = "\n".join(proof.lines())
        assert (hashlib.sha256(text.encode()).hexdigest()
                == PROOF_TEXT_DIGESTS["ring3-t6-pb"])
        assert (len(proof), proof.inputs, proof.pb_inputs) == (
            20658, 19437, 1051)
        assert res.certificate.proof_lines == len(proof)
        assert res.certificate.proof_steps_checked == 119
