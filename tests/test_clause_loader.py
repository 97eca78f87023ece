"""The bulk clause loader against the per-clause semantics it replaces.

``Solver.add_clauses`` loads flat ``[size, lit0, lit1, ...]`` int32
records through the backend's ``load_clauses`` loop; ``add_clause`` is a
one-record call into it.  Every record must get exactly the level-0
treatment one reference ``add_clause`` call gives it -- validation
before proof logging, false/duplicate literal removal, satisfied and
tautological clauses skipped, unit propagation, the empty clause -- so
the clause database (arena, watcher lists, trail, proof log, tags) is
byte-identical whichever path loaded it.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import Solver
from repro.sat.literals import VAL_FALSE, VAL_TRUE, from_dimacs
from repro.sat.solver import REASON_NONE

BACKENDS = ("pure", "fast")


def reference_add_clause(s: Solver, lits: list[int]) -> bool:
    """The per-clause level-0 semantics, one record at a time, written
    against the solver's primitives (validate, log, simplify, store)."""
    if not s.ok:
        return False
    for lit in lits:
        if lit < 0 or lit >> 1 >= s.nvars:
            raise ValueError(f"bad literal {lit}")
    if s.proof is not None:
        log_clause(s.proof, lits)
    s._cancel_until(0)
    seen: set[int] = set()
    out: list[int] = []
    for lit in lits:
        v = s.value_lit(lit)
        if v == VAL_TRUE or lit ^ 1 in seen:
            return True
        if v == VAL_FALSE or lit in seen:
            continue
        seen.add(lit)
        out.append(lit)
    if not out:
        s.ok = False
        return False
    if len(out) == 1:
        s._unchecked_enqueue(out[0], REASON_NONE)
        if s._propagate() != -1:
            s.ok = False
            return False
        return True
    cid = s._new_clause(out, learnt=False)
    if s._active_tag is not None:
        s.cla_tag[cid] = s._active_tag
    s._problem_cids.append(cid)
    s._attach_clause(cid)
    return True


def expand_steps(proof) -> list[tuple]:
    """A ProofLog's steps with its input block expanded into ``("i",
    lits)`` steps (engine literals), in the order of the log's text:
    the clause records, the snapshot's PB steps, the unit records, the
    rest."""

    def records(pos: int, end: int) -> list[tuple]:
        out = []
        while pos < end:
            size = proof.block[pos]
            dimacs = proof.block[pos + 1:pos + 1 + size]
            out.append(("i", tuple(map(from_dimacs, dimacs))))
            pos += 1 + size
        return out

    return (records(0, proof.split) + proof.steps[:proof.split_steps]
            + records(proof.split, len(proof.block))
            + proof.steps[proof.split_steps:])


def log_clause(log, lits: list[int]) -> None:
    """Log one input clause through the bulk :meth:`ProofLog.log_inputs`."""
    log.log_inputs(pack([lits]), 0, len(lits) + 1)


def pack(records: list[list[int]]) -> array:
    buf = array("i")
    for rec in records:
        buf.append(len(rec))
        buf.extend(rec)
    return buf


def snapshot(s: Solver) -> dict:
    return {
        "ok": s.ok,
        "nvars": s.nvars,
        "arena": s.arena.tobytes(),
        "cla_off": s.cla_off.tobytes(),
        "cla_flags": s.cla_flags.tobytes(),
        "cla_act": s.cla_act.tobytes(),
        "watch_head": s.watch_head.tobytes(),
        "watch_next": s.watch_next.tobytes(),
        "trail": s.trail[: s.trail_n].tobytes(),
        "assigns": s.assigns.tobytes(),
        "seen": s._seen.tobytes(),
        "qhead": s.qhead,
        "order_heap": s.order_heap.tobytes(),
        "heap_n": s.heap_n,
        "problem_cids": list(s._problem_cids),
        "tags": dict(s.cla_tag),
        "proof": expand_steps(s.proof) if s.proof is not None else None,
        "inputs": s.proof.inputs if s.proof is not None else None,
    }


def replay(mode: str, stream) -> tuple[dict, list]:
    """Run a clause stream through one load path; return the final state
    and the exception (type name) each batch raised, if any."""
    nvars, batches, with_proof = stream
    backend = "pure" if mode == "reference" else mode.split("-")[0]
    s = Solver(backend=backend)
    s.new_vars(nvars)
    if with_proof:
        s.start_proof()
    raised = []
    for grow, tag, records in batches:
        s.new_vars(grow)
        err = None
        with s.tagged(tag):
            try:
                if mode == "reference":
                    for rec in records:
                        reference_add_clause(s, rec)
                elif mode.endswith("-single"):
                    for rec in records:
                        s.add_clause(rec)
                else:
                    s.add_clauses(pack(records))
            except ValueError as exc:
                err = type(exc).__name__
        raised.append(err)
    return snapshot(s), raised


@st.composite
def clause_streams(draw):
    """Random batches of clause records over a growing variable set:
    units, duplicates, tautologies, empty clauses, literals already
    fixed at level 0, and (rarely) unknown or negative literals, each
    batch under a random provenance tag."""
    nvars = draw(st.integers(min_value=1, max_value=10))
    batches = []
    total = nvars
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        grow = draw(st.integers(min_value=0, max_value=3))
        total += grow
        good = st.integers(min_value=0, max_value=2 * total - 1)
        bad = st.sampled_from([-1, -2, -7, 2 * total, 2 * total + 1, 999])
        lit = st.one_of(good, good, good, good, good, good, good, good,
                        good, good, good, good, good, good, good, bad)
        records = draw(st.lists(st.lists(lit, min_size=0, max_size=5),
                                min_size=0, max_size=14))
        tag = draw(st.sampled_from([None, "a", "b"]))
        batches.append((grow, tag, records))
    return nvars, batches, draw(st.booleans())


class TestLoaderDifferential:
    @settings(max_examples=250, deadline=None)
    @given(stream=clause_streams())
    def test_every_path_matches_the_reference(self, stream):
        want = replay("reference", stream)
        for mode in ("pure-bulk", "fast-bulk", "pure-single", "fast-single"):
            assert replay(mode, stream) == want, mode

    @settings(max_examples=100, deadline=None)
    @given(stream=clause_streams())
    def test_literal_count_matches_a_rescan(self, stream):
        """``num_literals`` is a running count kept by the loader."""
        nvars, batches, _ = stream
        for backend in BACKENDS:
            s = Solver(backend=backend)
            s.new_vars(nvars)
            for grow, _tag, records in batches:
                s.new_vars(grow)
                try:
                    s.add_clauses(pack(records))
                except ValueError:
                    pass
                if s.nvars >= 2:
                    s.add_pb([0, 2], [1, 1], 1)
                rescan = sum(len(c) for c in s.clauses) + sum(
                    len(pb.lits) for pb in s.pbs)
                assert s.num_literals() == rescan
                assert s.num_pbs() == len(s.pbs)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unit_chain_propagates_between_records(self, backend):
        # The unit fixes var 0, which falsifies the next clause's first
        # literal (dropped) and satisfies the one after (skipped); the
        # last unit then propagates through the clause stored before it.
        s = Solver(backend=backend)
        s.new_vars(4)
        assert s.add_clauses(pack([[0], [1, 2, 4], [0, 6], [3, 5], [4]]))
        assert list(s.trail[: s.trail_n]) == [0, 4, 3]
        # (propagation reorders watched literals in place)
        assert [sorted(c.lits) for c in s.clauses] == [[2, 4], [3, 5]]
        assert s.value_lit(3) == VAL_TRUE

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_record_stops_the_batch(self, backend):
        s = Solver(backend=backend)
        s.new_vars(2)
        proof = s.start_proof()
        assert not s.add_clauses(pack([[0, 2], [], [1, 3]]))
        assert not s.ok
        assert [step[1] for step in proof.steps] == [(0, 2), ()]
        assert s.num_clauses() == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truncated_record_rejected(self, backend):
        s = Solver(backend=backend)
        s.new_vars(2)
        with pytest.raises(ValueError, match="size"):
            s.add_clauses(array("i", [2, 0, 2, 3, 1]))
        assert s.num_clauses() == 1
        assert len(s.cla_off) == 1 and len(s.watch_next) == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tag_applies_to_the_whole_batch(self, backend):
        s = Solver(backend=backend)
        s.new_vars(3)
        with s.tagged("cap"):
            s.add_clauses(pack([[0, 2], [1, 4], [2, 4]]))
        s.add_clauses(pack([[0, 4]]))
        assert [c.tag for c in s.clauses] == ["cap", "cap", "cap", None]


class TestNegativeLiterals:
    """A negative literal used to index ``watch_head`` from the end; every
    entry point now rejects it before touching any state."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_add_clause(self, backend):
        s = Solver(backend=backend)
        s.new_vars(2)
        before = snapshot(s)
        with pytest.raises(ValueError, match="negative"):
            s.add_clause([-1, 2])
        assert snapshot(s) == before

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_add_clauses(self, backend):
        s = Solver(backend=backend)
        s.new_vars(2)
        with pytest.raises(ValueError, match="negative"):
            s.add_clauses(pack([[0, 2], [3, -4]]))
        assert [c.lits for c in s.clauses] == [[0, 2]]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("lit", [-1, 4])
    def test_solve_assumption(self, backend, lit):
        s = Solver(backend=backend)
        s.new_vars(2)
        s.add_clause([0, 2])
        with pytest.raises(ValueError, match="negative|unknown variable"):
            s.solve(assumptions=[1, lit])
        assert s.trail_lim_n == 0
        assert s.solve(assumptions=[1]) is True

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_add_pb(self, backend):
        s = Solver(backend=backend)
        s.new_vars(2)
        before = snapshot(s)
        with pytest.raises(ValueError, match="negative"):
            s.add_pb([0, -3], [1, 1], 1)
        assert snapshot(s) == before


class TestValidateBeforeLogging:
    """A rejected constraint never reaches the DRUP log."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clause_with_unknown_variable(self, backend):
        s = Solver(backend=backend)
        s.new_vars(2)
        proof = s.start_proof()
        s.add_clause([0, 2])
        steps = list(proof.steps)
        with pytest.raises(ValueError, match="unknown variable"):
            s.add_clause([1, 40])
        assert proof.steps == steps and proof.inputs == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pb_with_unknown_variable(self, backend):
        s = Solver(backend=backend)
        s.new_vars(2)
        proof = s.start_proof()
        steps = list(proof.steps)
        with pytest.raises(ValueError, match="unknown variable"):
            s.add_pb([0, 40], [1, 1], 1)
        assert proof.steps == steps

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pb_with_bad_coefficient(self, backend):
        s = Solver(backend=backend)
        s.new_vars(2)
        proof = s.start_proof()
        with pytest.raises(ValueError, match="positive"):
            s.add_pb([0, 2], [1, 0], 1)
        assert proof.steps == []


class TestBulkNewVars:
    """``new_vars(n)`` leaves the same bytes as ``n`` ``new_var()`` calls."""

    ARRAYS = ("assigns", "level", "trail_pos", "reason", "activity",
              "saved_phase", "_seen", "trail", "watch_head",
              "pb_watch_head", "heap_pos", "order_heap")

    @staticmethod
    def _primed(backend: str, solve: bool) -> Solver:
        s = Solver(backend=backend)
        s.new_vars(6)
        for lits in ([0, 2, 4], [1, 6], [3, 8, 10], [5, 7]):
            s.add_clause(lits)
        s.boost_activity([1, 4], 3.0)
        if solve:
            assert s.solve()
        return s

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("solve", [False, True])
    def test_bytes_match_single_calls(self, backend, solve):
        bulk = self._primed(backend, solve)
        single = self._primed(backend, solve)
        assert bulk.new_vars(5) == [single.new_var() for _ in range(5)]
        for name in self.ARRAYS:
            assert (getattr(bulk, name).tobytes()
                    == getattr(single, name).tobytes()), name
        assert (bulk.nvars, bulk.heap_n) == (single.nvars, single.heap_n)
        assert bulk.solve() == single.solve()
        assert bulk.model() == single.model()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_long_runs_match_single_calls(self, backend):
        """Runs long enough for the heap slots' bulk fill."""
        bulk = self._primed(backend, True)
        single = self._primed(backend, True)
        assert bulk.new_vars(100) == [single.new_var() for _ in range(100)]
        for name in self.ARRAYS:
            assert (getattr(bulk, name).tobytes()
                    == getattr(single, name).tobytes()), name
        assert (bulk.nvars, bulk.heap_n) == (single.nvars, single.heap_n)

    def test_zero_is_a_no_op(self):
        s = Solver()
        assert s.new_vars(0) == []
        assert s.nvars == 0 and len(s.order_heap) == 0

    def test_negative_boost_rejected(self):
        s = Solver()
        s.new_vars(1)
        with pytest.raises(ValueError):
            s.boost_activity([0], -1.0)


def per_clause_snapshot(s: Solver):
    """The input steps :meth:`Solver.start_proof` logs as one block, one
    clause at a time through the public views and the :class:`ProofLog`
    API."""
    from repro.sat.proof import ProofLog

    log = ProofLog()
    s._cancel_until(0)
    for c in s.clauses + s.learnts:
        log_clause(log, c.lits)
    for pb in s.pbs:
        log.log_pb(pb.lits, pb.coefs, pb.bound)
    for lit in s.trail[:s.trail_n]:
        log_clause(log, [lit])
    if not s.ok:
        log_clause(log, [])
    return log


class TestProofSnapshot:
    @pytest.mark.parametrize("pb_mode", [False, True], ids=["cnf", "pb"])
    def test_ring5_snapshot_matches_per_clause(self, pb_mode):
        from repro.core import Allocator, EncoderConfig
        from repro.core.objectives import objective_from_spec
        from repro.workloads.scaling import ring_architecture, scaling_taskset

        enc, cost_var, *_ = Allocator(
            scaling_taskset(5, 10), ring_architecture(5),
            EncoderConfig(pb_mode=pb_mode),
        )._encode(objective_from_spec("trt:ring"))
        s = enc.solver.sat
        expect = per_clause_snapshot(s)
        got = s.start_proof()
        assert expand_steps(got) == expect.steps
        assert list(got.lines()) == list(expect.lines())
        assert len(got) == len(expect)
        assert (got.inputs, got.pb_inputs) == (expect.inputs,
                                               expect.pb_inputs)
        # Mid-search: learnt clauses (in the solver's order) follow the
        # problem clauses, whatever arena slots they occupy.  A learnt
        # DB reduction leaves dead records in the arena and the learnt
        # list in activity order, not clause-id order.
        s.proof = None
        enc.solver.minimize(cost_var)
        s._reduce_db()
        assert s._learnt_cids != sorted(s._learnt_cids)
        expect = per_clause_snapshot(s)
        got = s.start_proof()
        assert expand_steps(got) == expect.steps
        assert len(got) == len(expect)
        assert got.inputs == expect.inputs


class TestEngineRecord:
    """A recorded call stream replays into a fresh solver with
    byte-identical state: variables, clause loads under their tags, PB
    constraints and activity boosts, in call order."""

    @staticmethod
    def _calls(s: Solver) -> None:
        s.new_var()
        s.new_vars(40)
        with s.tagged("first"):
            s.add_clauses(pack([[0, 2, 4], [1, 6], [8]]), new_vars=3)
        s.add_clause([3, 10, 12])
        s.boost_activity([5, 7], 2.5)
        with s.tagged("pb"):
            s.add_pb([14, 16, 18], [2, 1, 1], 2)
        s.add_clauses(pack([[20, 22], [21, 23, 24], []]))

    def test_replay_matches_the_recorded_solver(self):
        from repro.sat.solver import EngineRecord

        rec = Solver()
        rec.recorder = EngineRecord()
        self._calls(rec)
        record, rec.recorder = rec.recorder, None
        fresh = Solver()
        record.replay(fresh)
        got, want = snapshot(fresh), snapshot(rec)
        assert got == want and not want["ok"]
        for name in ("activity", "heap_pos", "pb_lits", "pb_coefs",
                     "pb_bound"):
            assert (getattr(fresh, name).tobytes()
                    == getattr(rec, name).tobytes()), name
        assert fresh.pb_tag == rec.pb_tag == {0: "pb"}
        assert fresh._active_tag is None

    def test_problem_clause_ids_are_an_int_array(self):
        s = Solver()
        s.new_vars(3)
        s.add_clauses(pack([[0, 2], [1, 4], [3, 5]]))
        assert s._problem_cids.typecode == "i"
        assert list(s._problem_cids) == [0, 1, 2] and s.num_clauses() == 3
        proof = s.start_proof()
        assert proof.inputs == 3


class TestTagMap:
    """``Solver.cla_tag`` stores one tag number per clause id and reads
    like the clause id -> tag dict it replaced."""

    def test_reads_and_writes_like_a_dict(self):
        from repro.sat.solver import TagMap

        tags, plain = TagMap(), {}
        tags.tag_range(2, 5, "a")
        plain.update(dict.fromkeys(range(2, 5), "a"))
        tags[9] = plain[9] = "b"
        tags[3] = plain[3] = "b"
        del tags[4]
        del plain[4]
        assert dict(tags) == plain and tags == plain
        assert len(tags) == 3 and sorted(tags.items()) == sorted(
            plain.items())
        assert tags.get(7) is None and tags.get(2) == "a"
        assert tags.counts() == {"a": 1, "b": 2}
        with pytest.raises(KeyError):
            del tags[4]

    def test_loads_tag_their_clauses(self):
        s = Solver()
        s.new_vars(4)
        with s.tagged("t"):
            s.add_clauses(pack([[0, 2], [1, 4], [3, 6]]))
        s.add_clause([5, 7])
        assert sorted(s.cla_tag.items()) == [(0, "t"), (1, "t"), (2, "t")]
        assert s.tag_counts() == {"t": 3}
        assert [c.tag for c in s.clauses] == ["t", "t", "t", None]

