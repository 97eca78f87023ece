"""The bit-blaster's compiled core: ``_blast.c`` through ``ctypes``.

:class:`CompiledBlaster` keeps the gate library's state -- the four
gate caches as open-addressing tables, the vector arena, the token map,
the emission area -- in ``array`` buffers that this module allocates
and grows; the C code only reads and writes inside them, through raw
addresses (the idiom of :mod:`repro.certify.rupcore`, with which it
shares no C code, only the loader :mod:`repro.native`).  It
keeps no state of its own, so blasters on several threads share nothing.

Python translates each queued triplet definition into a few program
words (:meth:`CompiledBlaster.encode_arith_def` and its siblings: a
vector slot per integer variable, constants by value, tokens as they
are); a require's root clause (:meth:`CompiledBlaster.assert_root`) and
a rebase queue words too.  The words run in one compiled call when
anything reads the blaster's state -- a literal, a vector, a counter,
the buffer, a flush -- so a run covers many ``require`` batches, not a
gate or a definition (an encoding makes a few hundred runs where
per-gate calls would make tens of thousands).  The clauses, the
variable numbering and the ``gates`` / ``gate_hits`` / ``narrowed_bits``
counters are those of the reference library
(:class:`repro.arith.bitblast.Blaster`).  A constant past 64 bits
travels as 32-bit limbs; a width or a variable count the core cannot
hold raises :class:`OverflowError`, never wraps.

:func:`make_blaster` picks the library by :func:`repro.native.pick`:
from the backend setting, where ``auto`` means this core when
:data:`BLAST_CORE` loads and the reference otherwise, the reason
recorded.  ``pb_mode`` always runs on the reference: its full adders
flush PB constraints between their clauses.  The library is built and
loaded by the first blaster that asks for it, never at import.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

from repro.arith.ast import IntVar
from repro.arith.bitblast import BlastFront, Blaster
from repro.arith.triplet import TOK_FALSE, TOK_TRUE
from repro.native import NativeCore, default_backend_name, pick
from repro.sat.solver import Solver

__all__ = ["BLAST_CORE", "CompiledBlaster", "make_blaster"]

# State block slots (S_* in _blast.c).
(S_NEXT_VAR, S_HEAD, S_TRUE, S_BUF_BASE, S_OUT_N, S_OUT_CAP, S_GATES,
 S_HITS, S_NARROWED, S_NARROW, S_AND_CAP, S_AND_N, S_XOR_CAP, S_XOR_N,
 S_MAJ_CAP, S_MAJ_N, S_MANY_CAP, S_MANY_N, S_KEYS_N, S_KEYS_CAP,
 S_ARENA_N, S_ARENA_CAP, S_SLOTS_CAP, S_TOK_CAP, S_SCRATCH_CAP, S_PC,
 S_NEED_OUT, S_NEED_GATES, S_NEED_KEYS, S_NEED_ARENA, S_NEED_SCRATCH,
 S_SLOTS) = range(32)

# Program words (OP_* / R_* in _blast.c).
_ARITH = {"+": 1, "-": 2, "*": 3}
_CMP = {"==": 4, "<": 5, "<=": 6}
_BOOL = {"and": 7, "or": 8}
OP_VEC, OP_ROOT, OP_REBASE = 9, 10, 11
R_VEC, R_NEW, R_INT, R_BIG = 1, 2, 3, 4
_DONE, _NEED_ROOM, _TOO_WIDE = 0, 1, 2

#: The arrays whose addresses every run passes, in the order of
#: ``bl_open`` in ``_blast.c``.
_ARRAYS = ("_out", "_and2", "_xor2", "_maj3", "_many", "_keys", "_arena",
           "_vec_off", "_vec_w", "_tok_lit", "_scratch")
#: Gate tables: (attribute, capacity slot, count slot, words per entry,
#: rehash kind).
_TABLES = (("_and2", S_AND_CAP, S_AND_N, 3, 0),
           ("_xor2", S_XOR_CAP, S_XOR_N, 3, 0),
           ("_maj3", S_MAJ_CAP, S_MAJ_N, 4, 1),
           ("_many", S_MANY_CAP, S_MANY_N, 4, 2))
_I64 = 1 << 63

#: The library: every function it must export, typed.
BLAST_CORE = NativeCore("blast core", Path(__file__).with_name("_blast.c"), {
    "blast_run": ("int", "ptr", "ptr", "ptr", "i64"),
    "blast_rehash": ("void", "i64", "ptr", "i64", "ptr", "i64", "ptr"),
})


def make_blaster(solver: Solver, pb_mode: bool = False,
                 narrow_bits: bool = True) -> BlastFront:
    """The blaster of one solver, on the library the backend setting
    names (see the module docstring)."""
    name = default_backend_name()
    if pb_mode and name != "pure":
        lib, reason = None, "pb_mode blasts full adders into PB constraints"
    else:
        lib, _, reason = pick(BLAST_CORE, name)
    if lib is not None:
        return CompiledBlaster(lib, solver, narrow_bits)
    blaster = Blaster(solver, pb_mode, narrow_bits)
    blaster.fallback_reason = reason
    return blaster


def _filled(code: str, fill: int, n: int) -> array:
    return array(code, [fill]) * n


def _resize(arr: array, size: int, fill: int = 0) -> None:
    """Extend ``arr`` to ``size`` items of ``fill``."""
    if size > len(arr):
        arr.extend(_filled(arr.typecode, fill, size - len(arr)))


def _addr(arr: array) -> int:
    return arr.buffer_info()[0]


def _state(slot: int, doc: str) -> property:
    """A state block slot as an attribute; reading or writing it first
    runs what is queued."""

    def get(self):
        if self._prog:
            self._run()
        return self._st[slot]

    def set_(self, value):
        if self._prog:
            self._run()
        self._st[slot] = value

    return property(get, set_, doc=doc)


class CompiledBlaster(BlastFront):
    """The gate library in ``_blast.c`` (see the module docstring); same
    interface and output as :class:`repro.arith.bitblast.Blaster`."""

    library = "fast"

    _next_var = _state(S_NEXT_VAR, "Next free variable.")
    _head = _state(S_HEAD, "Variables allocated before the first record.")
    _true_lit = _state(S_TRUE, "Constant-true literal, or -2.")
    gates = _state(S_GATES, "Gates materialized.")
    gate_hits = _state(S_HITS, "Gate requests served from a cache.")
    narrowed_bits = _state(S_NARROWED,
                           "Variable bits hardwired by range narrowing.")

    def __init__(self, lib, solver: Solver, narrow_bits: bool = True):
        self._lib = lib
        self._st = array("q", bytes(8 * S_SLOTS))
        self._stp = _addr(self._st)
        #: Program words queued for the next run.
        self._prog = array("q")
        super().__init__(solver, False, narrow_bits)
        st = self._st
        st[S_NARROW] = bool(narrow_bits)
        self._out = array("i", bytes(4 << 14))
        for attr, cap_slot, _, stride, _ in _TABLES:
            setattr(self, attr, _filled("i", -1, stride << 10))
            st[cap_slot] = 1 << 10
        self._keys = array("i", bytes(4 << 10))
        self._arena = array("i", bytes(4 << 12))
        self._vec_off = array("i", bytes(4 << 9))
        self._vec_w = array("i", bytes(4 << 9))
        self._tok_lit = _filled("i", -1, 1 << 10)
        self._scratch = array("i", bytes(4 << 10))
        self._sync_caps()
        #: IntVar nid -> vector slot, and the nids by slot.
        self._slots: dict[int, int] = {}
        self._slot_nids: list[int] = []

    def _sync_caps(self) -> None:
        """Record the array sizes and re-read their addresses (an array
        moves when it grows)."""
        st = self._st
        st[S_OUT_CAP] = len(self._out)
        st[S_KEYS_CAP] = len(self._keys)
        st[S_ARENA_CAP] = len(self._arena)
        st[S_SLOTS_CAP] = len(self._vec_w)
        st[S_TOK_CAP] = len(self._tok_lit)
        st[S_SCRATCH_CAP] = len(self._scratch)
        self._addrs = array("q", [_addr(getattr(self, a)) for a in _ARRAYS])
        self._ap = _addr(self._addrs)

    def _grow(self) -> None:
        """Grow what the stopped operation needs (``S_NEED_*``)."""
        st = self._st
        need = st[S_NEED_OUT]
        if need > len(self._out):
            _resize(self._out, max(need, 2 * len(self._out)))
        need = st[S_NEED_KEYS]
        if need > len(self._keys):
            _resize(self._keys, max(need, 2 * len(self._keys)))
        need = st[S_NEED_ARENA]
        if need > len(self._arena):
            _resize(self._arena, max(need, 2 * len(self._arena)))
        need = st[S_NEED_SCRATCH]
        if need > len(self._scratch):
            _resize(self._scratch, max(need, 2 * len(self._scratch)))
        gates = st[S_NEED_GATES]
        for attr, cap_slot, n_slot, stride, kind in _TABLES:
            cap = st[cap_slot]
            want = 2 * (st[n_slot] + gates)
            if want <= cap:
                continue
            new_cap = cap
            while new_cap < want:
                new_cap *= 2
            old = getattr(self, attr)
            table = _filled("i", -1, stride * new_cap)
            self._lib.blast_rehash(kind, _addr(old), cap, _addr(table),
                                   new_cap, _addr(self._keys))
            setattr(self, attr, table)
            st[cap_slot] = new_cap
        self._sync_caps()

    def _room_tokens(self, n: int) -> None:
        if n > len(self._tok_lit):
            _resize(self._tok_lit, max(n, 2 * len(self._tok_lit)), -1)
            self._sync_caps()

    # ------------------------------------------------------------------
    # Running a program
    # ------------------------------------------------------------------

    def _run(self) -> None:
        """Run the queued program words, growing arrays until they fit,
        and append what they emitted to the clause buffer (timed as
        ``t_blast``)."""
        t0 = time.perf_counter()
        prog = self._prog
        st = self._st
        st[S_PC] = 0
        st[S_OUT_N] = 0
        st[S_BUF_BASE] = len(self._buf)
        try:
            while True:
                status = self._lib.blast_run(self._ap, self._stp,
                                             _addr(prog), len(prog))
                if status == _DONE:
                    break
                if status == _NEED_ROOM:
                    self._grow()
                elif status == _TOO_WIDE:
                    raise OverflowError(
                        "a width or variable count past the compiled "
                        "blast core's 32-bit literals")
                else:
                    raise RuntimeError("malformed blast program")
        finally:
            n = st[S_OUT_N]
            if n:
                self._buf.extend(self._out[:n])
            del prog[:]
            self.t_blast += time.perf_counter() - t0

    def blast(self, trip) -> None:
        """Queue the Tripletizer's definitions (see
        :meth:`BlastFront.blast`): each is translated to program words,
        which run at the next read of the blaster's state.  A
        translation that raises leaves that definition and the later
        ones queued in the Tripletizer."""
        t0 = time.perf_counter()
        if trip.ntokens > len(self._tok_lit):
            self._room_tokens(trip.ntokens)
        prog = self._prog
        nids = self._slot_nids
        try:
            for queue, encode in (
                (trip.new_arith, self.encode_arith_def),
                (trip.new_cmp, self.encode_cmp_def),
                (trip.new_bool, self.encode_bool_def),
            ):
                if not queue:
                    continue
                n = 0
                try:
                    for d in queue:
                        mark = len(prog), len(nids)
                        encode(d)
                        n += 1
                except BaseException:
                    self._drop(*mark)
                    raise
                finally:
                    del queue[:n]
        finally:
            self.t_blast += time.perf_counter() - t0

    def assert_root(self, root: int, guard: int | None = None) -> None:
        guard = -1 if guard is None else guard
        top = max(root, guard) >> 1
        if top >= len(self._tok_lit):
            self._room_tokens(top + 1)
        self._prog.extend((OP_ROOT, root, guard))

    def rebase(self) -> None:
        if self._prog:
            # Decided when it runs, against the engine as it is now:
            # the engine only changes through a flush, which runs it.
            self._prog.extend((OP_REBASE, self.solver.nvars))
        else:
            super().rebase()

    @property
    def pending(self) -> bool:
        if self._prog:
            self._run()
        return bool(self._buf) or self._next_var > self.solver.nvars

    def flush(self) -> None:
        if self._prog:
            self._run()
        super().flush()

    def emit_clause(self, lits: list[int]) -> None:
        if self._prog:
            self._run()
        super().emit_clause(lits)

    def _drop(self, words: int, slots: int) -> None:
        """Forget a definition translated only in part."""
        del self._prog[words:]
        for nid in self._slot_nids[slots:]:
            del self._slots[nid]
        del self._slot_nids[slots:]

    # ------------------------------------------------------------------
    # Definitions to program words
    # ------------------------------------------------------------------

    def encode_arith_def(self, d) -> None:
        """Queue ``out = a OP b``."""
        code = _ARITH.get(d.op)
        if code is None:
            raise ValueError(f"unknown arithmetic op {d.op!r}")
        self._prog.append(code)
        self._ref(d.out)
        self._operand(d.a)
        self._operand(d.b)

    def encode_cmp_def(self, d) -> None:
        """Queue ``token <-> (a OP b)``."""
        code = _CMP.get(d.op)
        if code is None:
            raise ValueError(f"unknown comparison op {d.op!r}")
        self._prog.extend((code, d.out))
        self._operand(d.a)
        self._operand(d.b)

    def encode_bool_def(self, d) -> None:
        """Queue ``token <-> AND/OR(args)``."""
        code = _BOOL.get(d.op)
        if code is None:
            raise ValueError(f"unknown Boolean op {d.op!r}")
        args = d.args
        prog = self._prog
        prog.extend((code, d.out, len(args)))
        prog.extend(args)

    def _operand(self, atom) -> None:
        if isinstance(atom, IntVar):
            self._ref(atom)
        else:
            self._const(atom.value)

    def _ref(self, var: IntVar) -> None:
        """A vector reference: its slot, or a new slot with its range
        (the vector is created where the reference runs)."""
        nid = var.nid
        slot = self._slots.get(nid)
        if slot is not None:
            self._prog.extend((R_VEC, slot))
            return
        slot = self._new_slot(nid)
        r = self.range_cache.get(nid)
        lo, hi = (var.lo, var.hi) if r is None else (r.lo, r.hi)
        self._prog.extend((R_NEW, slot))
        self._const(lo)
        self._const(hi)

    def _new_slot(self, nid: int) -> int:
        slot = len(self._slot_nids)
        if slot >= len(self._vec_w):
            size = 2 * len(self._vec_w)
            _resize(self._vec_off, size)
            _resize(self._vec_w, size)
            self._sync_caps()
        self._slots[nid] = slot
        self._slot_nids.append(nid)
        return slot

    def _const(self, value: int) -> None:
        if -_I64 <= value < _I64:
            self._prog.extend((R_INT, value))
            return
        # Two's complement in n 32-bit limbs, n * 32 > bit_length.
        n = (value.bit_length() + 32) >> 5
        m = value & ((1 << (32 * n)) - 1)
        self._prog.extend((R_BIG, n))
        self._prog.extend([(m >> (32 * k)) & 0xFFFFFFFF for k in range(n)])

    # ------------------------------------------------------------------
    # Token and vector maps
    # ------------------------------------------------------------------

    def token_lit(self, tok: int) -> int:
        """SAT literal for a triplet Boolean token."""
        if tok == TOK_TRUE:
            return self.lit_true
        if tok == TOK_FALSE:
            return self.lit_false
        if self._prog:
            self._run()
        index = tok >> 1
        self._room_tokens(index + 1)
        base = self._tok_lit[index]
        if base < 0:
            base = self._new_lit()
            self._tok_lit[index] = base
        return base ^ (tok & 1)

    def mapped_lit(self, tok: int) -> int | None:
        """Base literal bound to a token (``tok & ~1``), or None."""
        if self._prog:
            self._run()
        index = tok >> 1
        if index < len(self._tok_lit) and self._tok_lit[index] >= 0:
            return self._tok_lit[index]
        return None

    def bind_token(self, tok: int, lit: int) -> None:
        """Bind a token to a literal (template replay)."""
        if self._prog:
            self._run()
        self._room_tokens((tok >> 1) + 1)
        self._tok_lit[tok >> 1] = lit

    def vector_of(self, var: IntVar) -> list[int] | None:
        """Bit vector of ``var`` if it was blasted, else None."""
        if self._prog:
            self._run()
        slot = self._slots.get(var.nid)
        if slot is None:
            return None
        off = self._vec_off[slot]
        return self._arena[off:off + self._vec_w[slot]].tolist()

    def vector(self, var: IntVar) -> list[int]:
        """Bit vector (LSB first) of an integer variable; created on first
        use with range constraints asserted for declared variables."""
        if var.nid not in self._slots:
            self._prog.append(OP_VEC)
            self._ref(var)
            self._run()
        return self.vector_of(var)

    def bind_vector(self, var: IntVar, lits) -> None:
        """Bind ``var`` to existing literals (template replay)."""
        if self._prog:
            self._run()
        slot = self._new_slot(var.nid)
        st = self._st
        off = st[S_ARENA_N]
        n = len(lits)
        if off + n > len(self._arena):
            _resize(self._arena, max(off + n, 2 * len(self._arena)))
            self._sync_caps()
        self._arena[off:off + n] = array("i", lits)
        self._vec_off[slot] = off
        self._vec_w[slot] = n
        st[S_ARENA_N] = off + n
