"""The bit-blaster's two gate libraries: the Python reference
(:class:`repro.arith.bitblast.Blaster`) and the compiled core
(:class:`repro.arith.blastcore.CompiledBlaster`, ``_blast.c``).

1. **Differential.**  Hypothesis streams of arithmetic, comparison and
   Boolean definitions -- mixed widths and signs, constants past 64
   bits, ``narrow_bits`` on and off -- run as incremental batches with
   engine reads (a flush) and rebases in between, and after a template
   replay.  After every step both libraries hold the same buffer words,
   variable counter, counters, vector map and token map; at the end
   the engines hold the same clause database.
2. **Identity.**  The pinned encodings, search and loading tests of
   ``tests/test_encode_regression.py`` and ``tests/test_arith_solver.py``
   run on each library by name (their subclasses there, built on
   :class:`OnLibrary`).
3. **Which library runs.**  The fast leg of CI's tier-1 matrix
   (``REPRO_SAT_BACKEND=fast``) blasts on the compiled core; ``pb_mode``
   always blasts on the reference.  The fallback rule shared with the
   SAT and checker cores is tested in ``tests/test_native.py``.

``--hypothesis-profile=deep`` runs the differential ten times deeper
(CI's ``encode-split`` job).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.arith import IntSolver
from repro.arith.ast import And, BoolVar, IntConst, IntVar, Not, Or
from repro.arith.bitblast import Blaster
from repro.arith.blastcore import CompiledBlaster
from repro.sat.core import backend_status

BLAST_STATUS = backend_status()["blaster"]

needs_compiled = pytest.mark.skipif(
    not BLAST_STATUS["available"],
    reason=f"compiled blast core unavailable: {BLAST_STATUS['reason']}",
)


class OnLibrary:
    """Mixin: run a test class with every new solver on ``library``
    (through the SAT backend setting, which also picks the engine)."""

    library = "pure"

    @pytest.fixture(autouse=True)
    def _on_library(self):
        if self.library == "fast" and not BLAST_STATUS["available"]:
            pytest.skip("compiled blast core unavailable")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "_default", self.library)
            assert IntSolver().blaster.library == self.library
            yield


def _solver(library: str, **kw) -> IntSolver:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_default", library)
        s = IntSolver(**kw)
    assert s.blaster.library == library
    return s


# ---------------------------------------------------------------------------
# What the two libraries must agree on
# ---------------------------------------------------------------------------


def _vectors(b) -> list:
    """Vector map in creation order, as (nid, bits) pairs."""
    if isinstance(b, CompiledBlaster):
        return [(nid, b._arena[b._vec_off[slot]:b._vec_off[slot]
                              + b._vec_w[slot]].tolist())
                for slot, nid in enumerate(b._slot_nids)]
    return list(b._vectors.items())


def _tokens(b) -> dict:
    if isinstance(b, CompiledBlaster):
        return {i << 1: lit for i, lit in enumerate(b._tok_lit) if lit >= 0}
    return dict(b._token_lit)


def _state(s: IntSolver, shared_nids: set) -> tuple:
    """Everything both libraries must agree on.  Fresh variables of the
    Tripletizer get different node ids in two solvers, so vectors
    compare in creation order, keyed by nid only for shared leaves."""
    b = s.blaster
    b.pending  # noqa: B018 - runs what the compiled library queued
    vecs = [(nid if nid in shared_nids else None, bits)
            for nid, bits in _vectors(b)]
    return (b._buf.tolist(), b._next_var, b._head, b._true_lit, b.gates,
            b.gate_hits, b.narrowed_bits, vecs, _tokens(b),
            b.solver.nvars, b.solver.num_clauses())


def _db(s: IntSolver) -> tuple:
    """The engine's clause database after a load of the buffer."""
    from tests.test_encode_regression import _db_digest

    sat = s.sat
    return (sat.nvars, sat.ok, _db_digest(sat))


# ---------------------------------------------------------------------------
# Definition streams
# ---------------------------------------------------------------------------

_BIG = 1 << 70

ranges = st.one_of(
    st.tuples(st.integers(-40, 40), st.integers(0, 60)).map(
        lambda t: (t[0], t[0] + t[1])),
    st.tuples(st.integers(0, 300), st.integers(0, 300)).map(
        lambda t: (t[0], t[0] + t[1])),
    st.sampled_from([(0, 0), (0, 1), (-1, 0), (0, 7), (0, 255), (-128, 127),
                     (-_BIG, _BIG), (0, _BIG + 3), (5, 1 << 40)]),
)

consts = st.one_of(st.integers(-300, 300),
                   st.sampled_from([1 << 40, -(1 << 63), _BIG + 5, -_BIG]))


def int_terms(nvars: int):
    leaf = st.one_of(st.tuples(st.just("v"), st.integers(0, nvars - 1)),
                     st.tuples(st.just("c"), consts))
    small = st.one_of(st.tuples(st.just("v"), st.integers(0, nvars - 1)),
                      st.tuples(st.just("c"), st.integers(-20, 20)))
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(["+", "-"]), kids, kids),
            st.tuples(st.just("*"), small, small),
        ),
        max_leaves=4,
    )


def bool_terms(nvars: int, nbools: int):
    cmp = st.tuples(st.sampled_from(["==", "<", "<=", "!=", ">="]),
                    int_terms(nvars), int_terms(nvars))
    leaf = st.one_of(cmp, st.tuples(st.just("b"), st.integers(0, nbools - 1)))
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(["and", "or"]),
                      st.lists(kids, min_size=2, max_size=3)),
            st.tuples(st.just("not"), kids),
        ),
        max_leaves=5,
    )


def _int(term, ivars):
    kind = term[0]
    if kind == "v":
        return ivars[term[1]]
    if kind == "c":
        return IntConst(term[1])
    a, b = _int(term[1], ivars), _int(term[2], ivars)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def _bool(term, ivars, bvars):
    kind = term[0]
    if kind == "b":
        return bvars[term[1]]
    if kind == "not":
        return Not(_bool(term[1], ivars, bvars))
    if kind in ("and", "or"):
        parts = [_bool(t, ivars, bvars) for t in term[1]]
        return And(*parts) if kind == "and" else Or(*parts)
    a, b = _int(term[1], ivars), _int(term[2], ivars)
    return {"==": a == b, "<": a < b, "<=": a <= b, "!=": a != b,
            ">=": a >= b}[kind]


def streams(nvars=4, nbools=3):
    step = st.one_of(
        st.tuples(st.just("require"), bool_terms(nvars, nbools),
                  st.one_of(st.none(), st.integers(0, nbools - 1))),
        st.tuples(st.just("literal"), bool_terms(nvars, nbools)),
        st.tuples(st.just("bits"), st.integers(0, nvars - 1)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("rebase")),
    )
    return st.tuples(st.lists(ranges, min_size=nvars, max_size=nvars),
                     st.lists(step, min_size=1, max_size=8))


def _apply(s, step, ivars, bvars):
    kind = step[0]
    if kind == "require":
        guard = None if step[2] is None else bvars[step[2]]
        s.require(_bool(step[1], ivars, bvars), guard=guard)
    elif kind == "literal":
        s.literal(_bool(step[1], ivars, bvars))
    elif kind == "bits":
        s.bits(ivars[step[1]])
    elif kind == "flush":
        s.sat  # noqa: B018 - reading the engine loads the buffer
    else:
        s.blaster.rebase()


_SLOW_OK = settings(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


@needs_compiled
class TestDifferential:
    @_SLOW_OK
    @given(stream=streams(), narrow=st.booleans(), simplify=st.booleans())
    def test_batches_match_the_reference(self, stream, narrow, simplify):
        rngs, steps = stream
        ivars = [IntVar(f"x{i}", lo, hi) for i, (lo, hi) in enumerate(rngs)]
        bvars = [BoolVar(f"b{i}") for i in range(3)]
        shared = {v.nid for v in ivars}
        pair = [_solver(lib, narrow_bits=narrow, simplify=simplify)
                for lib in ("pure", "fast")]
        for step in steps:
            for s in pair:
                _apply(s, step, ivars, bvars)
            ref, fast = (_state(s, shared) for s in pair)
            assert ref == fast, step
        assert _db(pair[0]) == _db(pair[1])

    @_SLOW_OK
    @given(stream=streams(), more=streams(), narrow=st.booleans())
    def test_after_a_template_replay(self, stream, more, narrow):
        """Record on each library, replay each template into a fresh
        solver of the same library, then blast more on top.  Each solver
        declares its own variables, so vectors compare by position."""
        rngs, steps = stream
        leaves = []
        templates = []
        for lib in ("pure", "fast"):
            s = _solver(lib, narrow_bits=narrow)
            s.record()
            ivars = [s.int_var(f"x{i}", lo, hi)
                     for i, (lo, hi) in enumerate(rngs)]
            bvars = [s.bool_var(f"b{i}") for i in range(3)]
            for step in steps:
                _apply(s, step, ivars, bvars)
            leaves.append((ivars, bvars))
            templates.append(s.template())
        replayed = []
        for lib, tpl in zip(("pure", "fast"), templates):
            r = _solver(lib, narrow_bits=narrow)
            r.replay(tpl)
            replayed.append(r)
        for step in more[1]:
            for r, (ivars, bvars) in zip(replayed, leaves):
                _apply(r, step, ivars, bvars)
            ref, fast = (_positional(_state(r, set())) for r in replayed)
            assert ref == fast, step
        assert _db(replayed[0]) == _db(replayed[1])


def _positional(state):
    return state[:7] + ([bits for _, bits in state[7]],) + state[8:]


# ---------------------------------------------------------------------------
# Edges of the compiled core
# ---------------------------------------------------------------------------


@needs_compiled
class TestCompiledEdges:
    def test_growth_from_small_arrays_keeps_the_output(self):
        """A mul wide enough to outgrow every initial array: the run
        stops, the arrays grow (tables rehash) and the output matches."""
        got = []
        for lib in ("pure", "fast"):
            s = _solver(lib)
            x = s.int_var("x", -(1 << 30), 1 << 30)
            y = s.int_var("y", -(1 << 30), 1 << 30)
            z = s.int_var("z", 0, 1 << 40)
            s.require(x * y + z == (1 << 35) + 7)
            s.require(x * y != z)
            got.append(_db(s))
        assert got[0] == got[1]

    def test_width_past_the_core_raises(self):
        s = _solver("fast")
        x = s.int_var("x", 0, 1 << (1 << 21))
        s.require(x >= 3)
        with pytest.raises(OverflowError, match="compiled blast core"):
            s.solve()

    def test_unknown_op_keeps_the_batch_queued(self):
        from repro.arith.triplet import CmpDef

        s = _solver("fast")
        x = s.int_var("x", 0, 9)
        s.require(x + 1 == 4)
        s.trip.new_cmp.append(CmpDef(0, "~", x, IntConst(1)))
        with pytest.raises(ValueError, match="unknown comparison"):
            s.blaster.blast(s.trip)
        assert len(s.trip.new_cmp) == 1
        s.trip.new_cmp.clear()
        assert s.solve() and s.value(x) == 3


# ---------------------------------------------------------------------------
# Which library runs
# ---------------------------------------------------------------------------


class TestLibrarySelection:
    @pytest.mark.skipif(
        os.environ.get("REPRO_SAT_BACKEND") != "fast",
        reason="asserts what the fast leg of CI's tier-1 matrix runs",
    )
    def test_fast_leg_blasts_on_the_compiled_core(self):
        from repro.core import Allocator
        from tests.test_encode_regression import _digest_system

        assert BLAST_STATUS["available"], BLAST_STATUS
        tasks, arch, objective = _digest_system("ring5-t10")
        enc, *_ = Allocator(tasks, arch)._encode(objective)
        assert enc.solver.blaster.library == "fast"
        assert enc.solver.blaster.fallback_reason is None
        assert enc.solver.encode_stats().gates > 0

    def test_pure_setting_and_pb_mode_blast_on_the_reference(self):
        assert type(_solver("pure").blaster) is Blaster
        pb = _solver("pure", pb_mode=True).blaster
        assert type(pb) is Blaster and pb.fallback_reason is None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "_default", "fast")
            pb = IntSolver(pb_mode=True).blaster
        assert type(pb) is Blaster and "pb_mode" in pb.fallback_reason
