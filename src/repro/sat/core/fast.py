"""Compiled search core: ``_core.c`` built on demand via ctypes.

The C file is a statement-by-statement translation of
:mod:`repro.sat.core.pure` (see the banner there), compiled once per
hash of source and compiler flags with the host C compiler into a shared
library cached under the system temp directory.  It operates directly on
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

Everything degrades gracefully: no compiler, a failed compile, an
unexpected ABI or a library missing an export all surface as
``(None, reason)`` from :func:`load_fast_backend` and the registry falls
back to the pure backend (see :mod:`repro.sat.core`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from operator import attrgetter
from pathlib import Path

__all__ = ["FastBackend", "load_fast_backend"]

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

#: Every function the library must export.
_SYMBOLS = ("sat_propagate", "sat_unwind", "sat_load_clauses",
            "sat_search")

#: Compiler flags; part of the cache key.  ``-ffp-contract=off`` keeps
#: the VSIDS double arithmetic free of fused multiply-adds, so it rounds
#: exactly like the Python reference (GNU C defaults to ``fast``).
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _expected_layout_ok() -> bool:
    """The C core assumes b=1, i=4, q=8, d=8 byte items (true on every
    mainstream platform; checked once so exotic ABIs fall back)."""
    return (
        array("b").itemsize == 1
        and array("i").itemsize == 4
        and array("q").itemsize == 8
        and array("d").itemsize == 8
    )


def _find_compiler() -> str | None:
    env = os.environ.get("CC")
    if env and shutil.which(env):
        return env
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _build_library(src: Path, cc: str) -> tuple[str | None, str | None]:
    """Compile ``src`` into a cached .so addressed by the hash of its
    source and :data:`_CFLAGS`; return (path, None) or (None, reason)."""
    key = hashlib.sha256(src.read_bytes())
    key.update("\0".join(_CFLAGS).encode())
    tag = key.hexdigest()[:16]
    cache = Path(tempfile.gettempdir()) / f"repro-sat-core-{os.getuid()}"
    out = cache / f"core-{tag}.so"
    if out.exists():
        return str(out), None
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(src)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            os.unlink(tmp)
            detail = (proc.stderr or proc.stdout or "").strip()
            return None, f"compile failed: {detail[:300]}"
        os.replace(tmp, out)  # atomic: concurrent builders both win
        return str(out), None
    except Exception as exc:
        return None, f"compile error: {exc}"


def _io(s, ncla: int, *extra: int) -> array:
    """The io prefix (``IO_*`` in ``_core.c``) followed by ``extra``."""
    return array("q", (s.qhead, s.trail_n, s.trail_lim_n, s.heap_n, s.nvars,
                       ncla, 0, s.stats.max_trail, 0, 0, *extra))


class FastBackend:
    """Search core running the compiled ``_core.c`` loops."""

    name = "fast"
    compiled = True

    def __init__(self, lib: ctypes.CDLL, library_path: str):
        for name in _SYMBOLS:
            fn = getattr(lib, name)
            fn.restype = None if name == "sat_unwind" else ctypes.c_int
            fn.argtypes = [ctypes.c_void_p] * 3
        self._propagate = lib.sat_propagate
        self._unwind = lib.sat_unwind
        self._load = lib.sat_load_clauses
        self._search = lib.sat_search
        self.library_path = library_path
        self.fallback_reason = None

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


def load_fast_backend() -> tuple[FastBackend | None, str | None]:
    """Build (or reuse) the compiled core. Returns (backend, None) on
    success, (None, human-readable reason) otherwise."""
    if not _expected_layout_ok():
        return None, ("array item sizes differ from the expected "
                      "b=1/i=4/q=8/d=8")
    src = Path(__file__).with_name("_core.c")
    if not src.is_file():
        return None, "_core.c not found next to fast.py"
    cc = _find_compiler()
    if cc is None:
        return None, "no C compiler (cc/gcc/clang) on PATH"
    path, reason = _build_library(src, cc)
    if path is None:
        return None, reason
    try:
        lib = ctypes.CDLL(path)
        for name in _SYMBOLS:
            getattr(lib, name)
    except (OSError, AttributeError) as exc:
        return None, f"failed to load compiled core: {exc}"
    return FastBackend(lib, path), None
