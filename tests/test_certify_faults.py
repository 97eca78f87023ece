"""Corruption-detection tests: tampered certificates must not pass.

Two layers of defence are exercised:

1. **Soundness under proof corruption** (hypothesis property): for every
   single-line corruption of a real solver proof, the independent RUP
   checker either *detects* the defect (raises / fails the refutation)
   or -- when it accepts -- its verdict is still *true of the corrupted
   input formula*, cross-checked against the brute-force oracle.  "Any
   corruption is detected" is deliberately not the claim (deleting a
   deletion line, say, leaves a valid proof); "no corruption yields a
   false UNSAT verdict" is, and that is what certification promises.

2. **Guaranteed rejections** (deterministic): corruptions crafted to
   invalidate the artifact -- input-clause flips, dropped derivation
   literals, dropped input lines, witness bit flips -- are each caught.

Both proof layers run on each of the checker's cores: the classes below
use the list core, their ``...Compiled`` subclasses the compiled one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import ProofError, RupChecker, audit_witness
from repro.certify.rupcore import rup_core_status
from repro.robust import PROOF_CORRUPTIONS, corrupt_allocation, corrupt_proof_line
from repro.sat import Solver, mklit, neg
from repro.sat.reference import brute_force_sat


def php_proof():
    """Proof of PHP(3,2) -- clauses only, from the real solver."""
    s = Solver()
    x = [[s.new_var() for _ in range(2)] for _ in range(3)]
    for p in range(3):
        s.add_clause([mklit(x[p][0]), mklit(x[p][1])])
    for h in range(2):
        for p1 in range(3):
            for p2 in range(p1 + 1, 3):
                s.add_clause([neg(mklit(x[p1][h])), neg(mklit(x[p2][h]))])
    proof = s.start_proof()
    assert not s.solve()
    return proof


def pb_proof():
    """Proof of an UNSAT PB instance from the real solver."""
    s = Solver()
    vs = s.new_vars(3)
    lits = [mklit(v) for v in vs]
    s.add_pb(lits, [1, 1, 1], 2)
    for i in range(3):
        for j in range(i + 1, 3):
            s.add_clause([neg(lits[i]), neg(lits[j])])
    proof = s.start_proof()
    assert not s.solve()
    return proof


PHP_LINES = php_proof().to_lines()
PB_LINES = pb_proof().to_lines()

#: Skip marker for the compiled-core variants of the checker tests.
needs_compiled = pytest.mark.skipif(
    not rup_core_status()["available"],
    reason=f"compiled RUP core unavailable: {rup_core_status()['reason']}",
)


def _checker_accepts(lines, core=None):
    """Feed a (possibly corrupted) proof; return the accepting checker
    or None when the corruption is detected."""
    checker = RupChecker(core)
    try:
        for line in lines:
            checker.add_line(line)
        if not checker.check_assumptions([]):
            return None
    except ProofError:
        return None
    return checker


def _truly_unsat(checker):
    """Brute-force the checker's *input* formula (DIMACS -> flat lits)."""
    clauses, pbs = checker.input_formula()
    flat = lambda d: (abs(d) - 1) * 2 + (1 if d < 0 else 0)  # noqa: E731
    nums = [abs(d) for c in clauses for d in c]
    nums += [abs(d) for (ls, _, _) in pbs for d in ls]
    nvars = max(nums, default=0)
    model = brute_force_sat(
        nvars,
        [[flat(d) for d in c] for c in clauses],
        [([flat(d) for d in ls], list(cs), b) for (ls, cs, b) in pbs],
    )
    return model is None


class TestProofCorruptionSoundness:
    core = "pure"

    @given(st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_no_corruption_yields_false_unsat_verdict(self, data):
        self._check_one_corruption(data)

    def _check_one_corruption(self, data):
        base = data.draw(st.sampled_from(["php", "pb"]))
        lines = PHP_LINES if base == "php" else PB_LINES
        index = data.draw(st.integers(0, len(lines) - 1))
        mode = data.draw(st.sampled_from(PROOF_CORRUPTIONS))
        corrupted = corrupt_proof_line(lines, index, mode)
        checker = _checker_accepts(corrupted, self.core)
        if checker is not None:
            # Accepted: the UNSAT verdict must hold for the corrupted
            # formula itself -- no silent PASS on a satisfiable input.
            assert _truly_unsat(checker), (
                f"checker accepted a corrupted proof of a satisfiable "
                f"formula (line {index}, mode {mode})"
            )

    def test_uncorrupted_baselines_accepted(self):
        assert _checker_accepts(PHP_LINES, self.core) is not None
        assert _checker_accepts(PB_LINES, self.core) is not None


@needs_compiled
class TestProofCorruptionSoundnessCompiled(TestProofCorruptionSoundness):
    core = "fast"

    # Its own property test: hypothesis ties one to a single class.
    @given(st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_no_corruption_yields_false_unsat_verdict(self, data):
        self._check_one_corruption(data)


class TestGuaranteedProofRejections:
    core = "pure"

    # A hand-written, fully explicit proof (x1+x2+x3 >= 2 with pairwise
    # at-most-one) whose every derivation step is load-bearing.
    LINES = [
        "b 2 1 1 1 2 1 3 0",
        "i -1 -2 0",
        "i -1 -3 0",
        "i -2 -3 0",
        "-1 0",
        "-2 0",
        "0",
    ]

    def test_baseline_accepted(self):
        assert _checker_accepts(self.LINES, self.core) is not None

    def test_flipped_input_literal_rejected(self):
        corrupted = corrupt_proof_line(self.LINES, 1, "flip-lit")
        assert corrupted[1] == "i 1 -2 0"
        assert _checker_accepts(corrupted, self.core) is None

    def test_dropped_derivation_literal_rejected(self):
        # "-1 0" becomes the empty clause: its RUP check must now fail.
        corrupted = corrupt_proof_line(self.LINES, 4, "drop-lit")
        assert corrupted[4] == "0"
        assert _checker_accepts(corrupted, self.core) is None

    def test_dropped_input_line_rejected(self):
        corrupted = corrupt_proof_line(self.LINES, 3, "drop-line")
        assert _checker_accepts(corrupted, self.core) is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            corrupt_proof_line(self.LINES, 0, "scramble")

    def test_corruption_returns_copy(self):
        before = list(self.LINES)
        corrupt_proof_line(self.LINES, 1, "flip-lit")
        assert self.LINES == before


@needs_compiled
class TestGuaranteedProofRejectionsCompiled(TestGuaranteedProofRejections):
    core = "fast"


class TestWitnessCorruption:
    def _solved_system(self):
        from repro.core import Allocator, SolveRequest
        from repro.model import TOKEN_RING, Architecture, Ecu, Medium
        from repro.model import Task, TaskSet

        arch = Architecture(
            ecus=[Ecu("p0"), Ecu("p1")],
            media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                          bit_rate=1_000_000, frame_overhead_bits=0,
                          min_slot=50, slot_overhead=10)],
        )
        # Crafted so that *every* single task move is a violation:
        # "a" is pinned to p0, and "b" must stay away from "a".
        tasks = TaskSet([
            Task("a", 2000, {"p0": 400}, 2000,
                 allowed=frozenset({"p0"})),
            Task("b", 2000, {"p0": 400, "p1": 400}, 2000,
                 separated_from=frozenset({"a"})),
        ])
        res = Allocator(tasks, arch).find_feasible(
            request=SolveRequest(certify=True))
        assert res.feasible and res.certified
        return tasks, arch, res.allocation

    def test_any_single_task_move_is_detected(self):
        tasks, arch, alloc = self._solved_system()
        assert audit_witness(tasks, arch, alloc).ok
        for name in alloc.task_ecu:
            bad = __import__("copy").deepcopy(alloc)
            bad.task_ecu[name] = (
                "p1" if bad.task_ecu[name] == "p0" else "p0"
            )
            report = audit_witness(tasks, arch, bad)
            assert not report.ok, f"moving {name!r} went undetected"
            assert report.problems

    def test_corrupt_allocation_helper_is_detected(self):
        tasks, arch, alloc = self._solved_system()
        bad = corrupt_allocation(alloc, list(arch.ecu_names()))
        assert bad.task_ecu != alloc.task_ecu
        assert not audit_witness(tasks, arch, bad).ok

    def test_corrupt_allocation_single_ecu_rejected(self):
        tasks, arch, alloc = self._solved_system()
        with pytest.raises(ValueError):
            corrupt_allocation(alloc, ["p0"])

    def test_model_bit_flip_fails_check_model(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([mklit(a), mklit(b)])
        s.add_clause([neg(mklit(a)), mklit(b)])
        assert s.solve()
        assert s.check_model()
        s._model[b] = not s._model[b]  # single-bit witness corruption
        assert not s.check_model()
