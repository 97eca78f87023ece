"""Compiled search core: ``_core.c`` built on demand via ctypes.

The C file is a statement-by-statement translation of
:mod:`repro.sat.core.pure` (see the banner there), compiled once per
hash of source and compiler flags with the host C compiler into a shared
library cached under the system temp directory (by :mod:`repro.native`,
the loader of all three compiled cores).  It operates directly on
the solver's ``array`` buffers through raw addresses — zero copies, zero
conversion.

Every call re-fetches the addresses (``array`` reallocates its buffer
when it grows) and packs the solver's scalars into an io block.  That
costs microseconds even when the call has nothing to do: a no-op
``propagate`` measured 6.3 µs when the loop still ran in Python, and
13 µs with the 30-array address table on a 2-CPU x86-64 container --
as much as a short propagation.  That is why
the CDCL loop itself runs in C: one ``search`` call covers a whole run
of decisions and conflicts (a restart's worth without a budget).  An
8-cell ``sweep-ring`` cycle makes 138 ``search`` calls (67 restarts, 71
answers) where a per-step interface made 115,000 crossings, and the
loader propagates level-0 units itself, so encoding makes one call per
clause batch.  Conflict analysis writes into
solver-owned scratch buffers (``Solver._learnt_buf`` and friends, one
slot per variable), so no conflict allocates one.

The library is built, loaded and bound by :func:`repro.native.pick`
from :data:`SAT_CORE`, the symbol table below; without it the registry
falls back to the pure backend (see :mod:`repro.sat.core`).
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from pathlib import Path

from repro.native import NativeCore

__all__ = ["FastBackend", "SAT_CORE"]

#: The arrays whose addresses every call passes, in the order of
#: ``core_open`` in ``_core.c``.
_ARRAYS = (
    "assigns", "level", "trail_pos", "reason", "trail", "trail_lim",
    "saved_phase", "activity", "order_heap", "heap_pos", "_seen",
    "arena", "cla_off", "cla_flags", "cla_act", "watch_head", "watch_next",
    "pb_lits", "pb_coefs", "pb_owner", "pb_off", "pb_len", "pb_slack",
    "pb_maxcoef", "pb_watch_head", "pb_watch_next",
    "_learnt_buf", "_clear_buf", "_stack_buf", "_pbr_buf",
)
_arrays = attrgetter(*_ARRAYS)

#: ``SearchState`` fields in ``sat_search``'s io slots ``S_RESUME`` ..
#: ``S_LOG_N``, all written back.
_SEARCH_IO = ("resume", "aux", "restart_conflicts", "restart_limit",
              "n_learnts", "gov_active", "budget_room", "charged_conflicts",
              "charged_decisions", "arena_n", "log_n")
_search_fields = attrgetter(*_SEARCH_IO)
_IO_PREFIX = 10  # slots of the shared io prefix (IO_PREFIX in _core.c)

_STEP = ("ptr", "ptr", "ptr")
#: The library: every function it must export, typed.
SAT_CORE = NativeCore("SAT backend", Path(__file__).with_name("_core.c"), {
    "sat_propagate": ("int", *_STEP),
    "sat_unwind": ("void", *_STEP),
    "sat_load_clauses": ("int", *_STEP),
    "sat_search": ("int", *_STEP),
    "sat_snapshot": ("i64", "ptr", "ptr", "ptr", "i64", "ptr", "i64", "ptr"),
})


def _io(s, ncla: int, *extra: int) -> array:
    """The io prefix (``IO_*`` in ``_core.c``) followed by ``extra``."""
    return array("q", (s.qhead, s.trail_n, s.trail_lim_n, s.heap_n, s.nvars,
                       ncla, 0, s.stats.max_trail, 0, 0, *extra))


class FastBackend:
    """Search core running the compiled ``_core.c`` loops."""

    name = "fast"
    fallback_reason = None

    def __init__(self, lib, library_path: str):
        self._propagate = lib.sat_propagate
        self._unwind = lib.sat_unwind
        self._load = lib.sat_load_clauses
        self._search = lib.sat_search
        self._snapshot = lib.sat_snapshot
        self.library_path = library_path

    @staticmethod
    def _call(fn, s, io: array, *dio_extra: float) -> int:
        """Run ``fn`` on solver ``s`` and write the io prefix back."""
        dio = array("d", (s.var_inc, s.cla_inc, float(s.RESCALE_LIMIT),
                          *dio_extra))
        addrs = array("q", [a.buffer_info()[0] for a in _arrays(s)])
        ret = fn(addrs.buffer_info()[0], io.buffer_info()[0],
                 dio.buffer_info()[0])
        s.qhead, s.trail_n, s.trail_lim_n, s.heap_n = io[0], io[1], io[2], io[3]
        st = s.stats
        st.propagations += io[6]
        st.max_trail = io[7]
        st.var_rescales += io[8]
        st.cla_rescales += io[9]
        s.var_inc = dio[0]
        s.cla_inc = dio[1]
        return ret

    def propagate(self, s) -> int:
        return self._call(self._propagate, s, _io(s, 0))

    def unwind(self, s, bound: int) -> None:
        self._call(self._unwind, s, _io(s, 0, bound))

    def load_clauses(self, s, buf, io) -> int:
        cio = _io(s, io[2], buf.buffer_info()[0], len(buf), io[0], io[1], 0)
        status = self._call(self._load, s, cio)
        p = _IO_PREFIX
        io[0], io[1], io[2], io[3] = cio[p + 2], cio[p + 3], cio[5], cio[p + 4]
        return status

    def search(self, s, st) -> int:
        log = st.log
        io = _io(
            s, st.ncla, *_search_fields(st),
            s._gov_countdown, len(s.arena), len(s.cla_off),
            st.assumptions.buffer_info()[0], len(st.assumptions),
            0 if log is None else log.buffer_info()[0],
            0 if log is None else len(log),
            0, 0, 0, 0,
        )
        status = self._call(self._search, s, io, st.max_learnts,
                            s.VAR_DECAY, s.CLA_DECAY)
        p = _IO_PREFIX
        for k, name in enumerate(_SEARCH_IO):
            setattr(st, name, io[p + k])
        st.ncla = io[5]
        s._gov_countdown = io[p + 11]
        stats = s.stats
        stats.conflicts += io[p + 18]
        stats.decisions += io[p + 19]
        stats.learnt_clauses += io[p + 20]
        stats.learnt_literals += io[p + 21]
        return status

    def snapshot_block(self, s) -> array:
        """``pure.snapshot_block`` in one compiled pass."""
        learnt = array("i", s._learnt_cids)
        cids = s._problem_cids
        if learnt:
            cids = cids + learnt
        out = array("i", bytes(4 * (len(s.arena) + 2 * s.trail_n)))
        n = self._snapshot(s.arena.buffer_info()[0],
                           s.cla_off.buffer_info()[0],
                           cids.buffer_info()[0], len(cids),
                           s.trail.buffer_info()[0], s.trail_n,
                           out.buffer_info()[0])
        del out[n:]
        return out

