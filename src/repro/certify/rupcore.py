"""The RUP checker's compiled core: ``_rup.c`` through ``ctypes``.

:class:`CompiledCore` keeps the checker's database -- clause arena,
watch and implication lists, PB terms and slack counters, the level-0
trail -- in ``array`` buffers that this module allocates and grows; the
C functions only read and write inside them, through raw addresses
(the idiom of the SAT engine's ``repro/sat/core/fast.py``, with which it
shares no C code, only the loader :mod:`repro.native`).  The checker's
front (:class:`repro.certify.drup.RupChecker`) does the numbering,
parsing and deletion keys for both cores, so this core sees internal
literals only.

:func:`make_core` picks the core by :func:`repro.native.pick`: by name,
or from the backend setting, where ``auto`` means this core when
:data:`RUP_CORE` loads and the list core
(:class:`repro.certify.drup.ListCore`) otherwise, the reason recorded.
The library is built and loaded on the first checker that asks for it,
never at import.
"""

from __future__ import annotations

from array import array
from pathlib import Path

from repro.certify.drup import ListCore, ProofError
from repro.native import NativeCore, pick

__all__ = ["CompiledCore", "RUP_CORE", "make_core"]

#: The arrays whose addresses every stateful call passes, in the order
#: of ``rup_open`` in ``_rup.c``: (attribute, typecode, empty fill).
#: The first four are per-literal tables (``2 * cap + 1`` slots).
_ARRAYS = (
    ("val", "b", 0), ("watch_head", "i", -1), ("bin_head", "i", -1),
    ("occ_head", "i", -1), ("trail", "i", 0),
    ("arena", "i", 0), ("cla_off", "i", 0), ("flag", "b", 0),
    ("wnext", "i", 0), ("units", "i", 0),
    ("pb_off", "i", 0), ("pb_len", "i", 0), ("slack0", "q", 0),
    ("slack", "q", 0),
    ("term_lit", "i", 0), ("term_coef", "q", 0), ("term_pb", "i", 0),
    ("occ_next", "i", 0), ("pb_units", "i", 0),
)
_PER_LITERAL = 4
_DELETED = 1  # F_DELETED of a clause's flag byte

# State block slots (S_* in _rup.c).
(S_CAP, S_NCLA, S_ATTACHED, S_ARENA_N, S_NPB, S_NTERM, S_NUNITS,
 S_NPBUNITS, S_TRAIL_N, S_HEAD0, S_CONFLICT0, S_STALE, S_PROPS,
 S_REBUILDS, S_SLOTS) = range(15)

#: The library: every function it must export, typed.
RUP_CORE = NativeCore("checker core", Path(__file__).with_name("_rup.c"), {
    "rup_scan": ("int", "ptr", "i64", "ptr"),
    "rup_store": ("void", "ptr", "ptr", "ptr", "i64"),
    "rup_attach": ("void", "ptr", "ptr"),
    "rup_settle": ("int", "ptr", "ptr"),
    "rup_refutes": ("int", "ptr", "ptr", "ptr", "i64"),
    "rup_add_pb": ("int", "ptr", "ptr", "ptr", "ptr", "i64", "i64"),
    "rup_delete": ("void", "ptr", "ptr", "i64"),
    "rup_eval_clauses": ("i64", "ptr", "i64", "ptr", "i64"),
    "rup_eval_pbs": ("i64", "ptr", "i64", "ptr", "i64"),
})


def make_core(name: str | None, stats: dict):
    """The core a checker named ``name`` runs on (see the module
    docstring); ``stats`` is the checker's statistics dict."""
    lib, _, reason = pick(RUP_CORE, name)
    if lib is not None:
        return CompiledCore(lib, stats)
    core = ListCore(stats)
    core.fallback_reason = reason
    return core


def _resize(arr: array, size: int) -> None:
    """Zero-extend ``arr`` to ``size`` items."""
    arr.frombytes(bytes(arr.itemsize * (size - len(arr))))


def _ints(values) -> array:
    return values if type(values) is array and values.typecode == "i" \
        else array("i", values)


class CompiledCore:
    """The checker's database and loops in ``_rup.c`` (see the module
    docstring); same interface as :class:`repro.certify.drup.ListCore`."""

    name = "fast"
    fallback_reason = None

    def __init__(self, lib, stats: dict) -> None:
        self._lib = lib
        self.stats = stats
        # Per-literal tables start with the slot of literal 0; the rest
        # empty.
        for k, (attr, code, fill) in enumerate(_ARRAYS):
            setattr(self, attr, array(code, [fill] * (k < _PER_LITERAL)))
        self._st = array("q", bytes(8 * S_SLOTS))
        self._stp = self._st.buffer_info()[0]
        self._refresh()

    def _refresh(self) -> None:
        """Re-read the buffer addresses (an array moves when it grows)."""
        self._addrs = array("q", [getattr(self, attr).buffer_info()[0]
                                  for attr, _, _ in _ARRAYS])
        self._ap = self._addrs.buffer_info()[0]

    def _sync(self) -> None:
        st = self._st
        self.stats["propagations"] = st[S_PROPS]
        self.stats["rebuilds"] = st[S_REBUILDS]

    # -- room --------------------------------------------------------------

    def grow(self, n: int, new: int) -> None:
        """Room for ``new`` variables instead of ``n``."""
        for attr, code, fill in _ARRAYS[:_PER_LITERAL]:
            old = getattr(self, attr)
            fresh = array(code, [fill]) * (2 * new + 1)
            fresh[new - n:new + n + 1] = old
            setattr(self, attr, fresh)
        _resize(self.trail, new)
        self._st[S_CAP] = new
        self._refresh()

    def _room(self, words: int, clauses: int) -> None:
        st = self._st
        moved = False
        need = st[S_ARENA_N] + words
        if need > len(self.arena):
            _resize(self.arena, max(need, 2 * len(self.arena)))
            moved = True
        need = st[S_NCLA] + clauses
        if need > len(self.cla_off):
            size = max(need, 2 * len(self.cla_off))
            for arr in (self.cla_off, self.flag, self.units):
                _resize(arr, size)
            _resize(self.wnext, 2 * size)
            moved = True
        if moved:
            self._refresh()

    def _pb_room(self, terms: int) -> None:
        st = self._st
        moved = False
        if st[S_NPB] + 1 > len(self.pb_off):
            size = max(1, 2 * len(self.pb_off))
            for arr in (self.pb_off, self.pb_len, self.slack0, self.slack):
                _resize(arr, size)
            moved = True
        need = st[S_NTERM] + terms
        if need > len(self.term_lit):
            size = max(need, 2 * len(self.term_lit))
            for arr in (self.term_lit, self.term_coef, self.term_pb,
                        self.occ_next, self.pb_units):
                _resize(arr, size)
            moved = True
        if moved:
            self._refresh()

    # -- the front's interface ---------------------------------------------

    def scan_block(self, words):
        """Validate a block in one C pass: (the block as ``array('i')``,
        words, records, empty records, largest |word|), or
        :class:`ProofError`."""
        try:
            block = _ints(words)
        except OverflowError:
            # Words past 32 bits: the list core's reader validates and
            # reports; such a block is always renumbered.
            return ListCore.scan_block(words)
        out = array("q", bytes(32))
        status = self._lib.rup_scan(block.buffer_info()[0], len(block),
                                    out.buffer_info()[0])
        if status == 1:
            pos = out[0]
            raise ProofError(
                f"input record at word {pos} has size {block[pos]}, "
                f"which does not fit the block of {len(block)} words"
            )
        if status == 2:
            pos = out[0]
            bad = block[pos + 1:pos + 1 + block[pos]].tolist()
            raise ProofError(f"zero literal in input record {bad}")
        return block, len(block), out[1], out[2], out[3]

    @staticmethod
    def _records(block):
        if type(block) is list:  # the list reader's records (see above)
            return block
        recs = []
        pos, end = 0, len(block)
        while pos < end:
            nxt = pos + 1 + block[pos]
            recs.append(block[pos + 1:nxt])
            pos = nxt
        return recs

    def block_literals(self, block):
        return [lit for r in self._records(block) for lit in r]

    def store_block(self, block, get, records: int) -> None:
        """Store the ``records`` non-empty records, mapped through
        ``get`` (None: numbered by identity)."""
        if get is not None:
            mapped = array("i")
            for r in self._records(block):
                if r:
                    mapped.append(len(r))
                    mapped.extend(map(get, r))
            block = mapped
        self._store(block, records)

    def _store(self, block: array, records: int) -> None:
        self._room(len(block), records)
        self._lib.rup_store(self._ap, self._stp, block.buffer_info()[0],
                            len(block))

    def add_clause(self, ints: list[int]) -> None:
        """Store a non-empty clause (an input or a checked addition)."""
        self._store(array("i", [len(ints), *ints]), 1)

    def add_pb(self, lits: list[int], coefs: list[int], bound: int) -> bool:
        """Store a PB constraint; False when no assignment satisfies
        it."""
        self._pb_room(len(lits))
        la = array("i", lits)
        ca = array("q", coefs)
        bad = self._lib.rup_add_pb(self._ap, self._stp, la.buffer_info()[0],
                                   ca.buffer_info()[0], len(la), bound)
        self._sync()
        return not bad

    def attach(self) -> None:
        self._lib.rup_attach(self._ap, self._stp)

    def nclauses(self) -> int:
        return self._st[S_NCLA]

    def clause(self, idx: int) -> list[int] | None:
        """Clause ``idx``'s literals (internal), None once deleted."""
        if self.flag[idx] & _DELETED:
            return None
        off = self.cla_off[idx]
        return self.arena[off + 1:off + 1 + self.arena[off]].tolist()

    def delete(self, idx: int, key) -> None:
        self._lib.rup_delete(self._ap, self._stp, idx)

    def settle(self) -> bool:
        conflict = self._lib.rup_settle(self._ap, self._stp)
        self._sync()
        return bool(conflict)

    def refutes(self, seed: list[int]) -> bool:
        sa = array("i", seed)
        conflict = self._lib.rup_refutes(self._ap, self._stp,
                                         sa.buffer_info()[0], len(sa))
        self._sync()
        return bool(conflict)

    def eval_clauses(self, model: bytes, words) -> int:
        block = _ints(words)
        return self._lib.rup_eval_clauses(block.buffer_info()[0], len(block),
                                          model, len(model))

    def eval_pbs(self, model: bytes, words) -> int:
        block = words if type(words) is array and words.typecode == "q" \
            else array("q", words)
        return self._lib.rup_eval_pbs(block.buffer_info()[0], len(block),
                                      model, len(model))
