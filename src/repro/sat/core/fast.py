"""Compiled propagation core, conflict analysis and clause loader:
``_core.c`` built on demand via ctypes.

The C file is a statement-by-statement translation of
:mod:`repro.sat.core.pure` (see the banner there), compiled once per
hash of source and compiler flags with the host C compiler into a shared
library cached under the system temp directory.  It operates directly on
the solver's ``array`` buffers through raw addresses — zero copies, zero
conversion.

Addresses are re-fetched on every call because ``array`` reallocates its
buffer when it grows (clause learning appends to the arena between
propagations); ``buffer_info()`` is a few tens of nanoseconds, far below
the cost of the propagation it precedes.  Conflict analysis writes into
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
from pathlib import Path

__all__ = ["FastBackend", "load_fast_backend"]

_N_PROP_ARRAYS = 19  # pointer args of sat_propagate before the io block
_N_ANALYZE_ARRAYS = 22  # pointer args of sat_analyze before the limit

#: Every function the library must export.
_SYMBOLS = ("sat_propagate", "sat_unwind", "sat_pick_branch",
            "sat_load_clauses", "sat_analyze")

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


class FastBackend:
    """Propagation core running the compiled ``_core.c`` loops."""

    name = "fast"
    compiled = True

    def __init__(self, lib: ctypes.CDLL, library_path: str):
        self._propagate = lib.sat_propagate
        self._unwind = lib.sat_unwind
        self._pick = lib.sat_pick_branch
        self._load = lib.sat_load_clauses
        self._analyze = lib.sat_analyze
        longlong_p = ctypes.POINTER(ctypes.c_longlong)
        self._propagate.restype = ctypes.c_int
        self._propagate.argtypes = (
            [ctypes.c_void_p] * _N_PROP_ARRAYS + [longlong_p]
        )
        self._unwind.restype = None
        self._unwind.argtypes = [ctypes.c_void_p] * 12 + [
            ctypes.c_longlong,
            ctypes.c_longlong,
            longlong_p,
        ]
        self._pick.restype = ctypes.c_int
        self._pick.argtypes = [ctypes.c_void_p] * 4 + [longlong_p]
        self._load.restype = ctypes.c_int
        self._load.argtypes = (
            [ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong]
            + [ctypes.c_void_p] * 9
        )
        self._analyze.restype = ctypes.c_longlong
        self._analyze.argtypes = (
            [ctypes.c_void_p] * _N_ANALYZE_ARRAYS + [ctypes.c_double]
        )
        self.library_path = library_path
        self.fallback_reason = None

    def propagate(self, s) -> int:
        io = (ctypes.c_longlong * 4)(s.qhead, s.trail_n, len(s.trail_lim), 0)
        bi = lambda a: a.buffer_info()[0]  # noqa: E731 - hot, tiny
        confl = self._propagate(
            bi(s.assigns), bi(s.level), bi(s.trail_pos), bi(s.reason),
            bi(s.trail), bi(s.arena), bi(s.cla_off), bi(s.cla_flags),
            bi(s.watch_head), bi(s.watch_next),
            bi(s.pb_lits), bi(s.pb_coefs), bi(s.pb_owner),
            bi(s.pb_off), bi(s.pb_len), bi(s.pb_slack), bi(s.pb_maxcoef),
            bi(s.pb_watch_head), bi(s.pb_watch_next),
            io,
        )
        s.qhead = io[0]
        s.trail_n = io[1]
        st = s.stats
        st.propagations += io[3]
        if io[1] > st.max_trail:
            st.max_trail = io[1]
        return confl

    def unwind(self, s, bound: int) -> None:
        io = (ctypes.c_longlong * 1)(s.heap_n)
        bi = lambda a: a.buffer_info()[0]  # noqa: E731
        self._unwind(
            bi(s.assigns), bi(s.reason), bi(s.trail), bi(s.saved_phase),
            bi(s.pb_owner), bi(s.pb_coefs), bi(s.pb_slack),
            bi(s.pb_watch_head), bi(s.pb_watch_next),
            bi(s.order_heap), bi(s.heap_pos), bi(s.activity),
            s.trail_n, bound, io,
        )
        s.heap_n = io[0]

    def pick_branch(self, s) -> int:
        io = (ctypes.c_longlong * 1)(s.heap_n)
        bi = lambda a: a.buffer_info()[0]  # noqa: E731
        var = self._pick(
            bi(s.assigns), bi(s.order_heap), bi(s.heap_pos),
            bi(s.activity), io,
        )
        s.heap_n = io[0]
        return var

    def load_clauses(self, s, buf, io) -> int:
        bi = lambda a: a.buffer_info()[0]  # noqa: E731
        return self._load(
            bi(buf), len(buf), s.nvars,
            bi(s.assigns), bi(s._seen), bi(s.arena), bi(s.cla_off),
            bi(s.cla_flags), bi(s.cla_act),
            bi(s.watch_head), bi(s.watch_next), bi(io),
        )

    def analyze(self, s, confl: int) -> tuple[list[int], int]:
        io = array("q", (confl, s.trail_n, len(s.trail_lim), s.nvars,
                         len(s.cla_off), 0))
        dio = array("d", (s.var_inc, s.cla_inc))
        bi = lambda a: a.buffer_info()[0]  # noqa: E731
        n = self._analyze(
            bi(s.assigns), bi(s.level), bi(s.trail_pos), bi(s.reason),
            bi(s.trail), bi(s._seen), bi(s.arena), bi(s.cla_off),
            bi(s.cla_flags), bi(s.cla_act),
            bi(s.pb_lits), bi(s.pb_off), bi(s.pb_len),
            bi(s.activity), bi(s.order_heap), bi(s.heap_pos),
            bi(s._learnt_buf), bi(s._clear_buf), bi(s._stack_buf),
            bi(s._pbr_buf), bi(io), bi(dio), float(s.RESCALE_LIMIT),
        )
        s.var_inc = dio[0]
        s.cla_inc = dio[1]
        return s._learnt_buf[:n].tolist(), io[5]


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
