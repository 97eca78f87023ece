"""The backend setting and the one loader of the compiled cores.

Three layers run in a compiled core with a pure-Python reference twin:
the SAT engine (``repro/sat/core/_core.c``), the RUP checker
(``repro/certify/_rup.c``) and the bit-blaster (``repro/arith/_blast.c``).
They share no C code, only what is here:

- **The setting.**  ``REPRO_SAT_BACKEND`` (``auto`` | ``pure`` |
  ``fast``, read on every request, so worker processes inherit it) or
  the process default :func:`set_default_backend` (the CLI's
  ``--backend``, the serve breaker) picks compiled or reference for all
  three cores at once.
- **The loader.**  :func:`load_library` compiles a core's source on
  first use with the host C compiler (:func:`build_library`: one
  compile per hash of source and compiler flags, cached under the
  system temp directory, so a second process loads without compiling),
  opens it through ``ctypes`` and binds the core's symbol table.  The
  outcome, library or reason, is cached per source for the process.
  Nothing is built or loaded, and ``ctypes`` is not imported, before a
  core asks.
- **The fallback rule** (:func:`pick`).  ``pure`` means the reference,
  no reason recorded; ``auto`` and ``fast`` mean the compiled core when
  its library loads, otherwise the reference with that library's reason
  recorded on the instance the caller builds.
- **The status report** (:func:`library_status`).

Each core module declares a :class:`NativeCore` and keeps its wrapper
class: :class:`repro.sat.core.fast.FastBackend`,
:class:`repro.certify.rupcore.CompiledCore` and
:class:`repro.arith.blastcore.CompiledBlaster`.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path
from typing import NamedTuple

__all__ = ["BACKEND_ENV", "BACKENDS", "CFLAGS", "NativeCore", "build_library",
           "default_backend_name", "find_compiler", "library_status",
           "load_library", "pick", "set_default_backend"]

BACKEND_ENV = "REPRO_SAT_BACKEND"
BACKENDS = ("auto", "pure", "fast")

#: Process-level default; ``None`` defers to the environment variable.
_default: str | None = None

#: Compiler flags; part of the cache key.  ``-ffp-contract=off`` keeps
#: the SAT core's VSIDS double arithmetic free of fused multiply-adds,
#: so it rounds exactly like the Python reference (GNU C defaults to
#: ``fast``); the RUP and blast cores do no floating point.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class NativeCore(NamedTuple):
    """A compiled core: its name in errors, its C source, and the
    functions its library must export as ``name -> (restype,
    *argtypes)``, each ``"void"``, ``"int"``, ``"i64"`` or ``"ptr"``."""

    label: str
    source: Path
    symbols: dict


#: Source -> (library, path, reason) of every core asked for so far.
_libraries: dict[Path, tuple] = {}


def set_default_backend(name: str | None) -> None:
    """Set the process-wide default backend (``None`` resets to env)."""
    global _default
    if name is not None and name not in BACKENDS:
        raise ValueError(
            f"unknown SAT backend {name!r} (choose from {', '.join(BACKENDS)})"
        )
    _default = name


def default_backend_name() -> str:
    """The currently requested backend name (before resolution)."""
    if _default is not None:
        return _default
    env = os.environ.get(BACKEND_ENV, "auto").strip().lower()
    return env if env in BACKENDS else "auto"


def pick(core: NativeCore, name: str | None = None) -> tuple:
    """The fallback rule for one request of ``core`` (``None``: the
    setting): ``(library, path, None)`` to run compiled, ``(None, None,
    reason)`` to run the reference because the library does not load,
    ``(None, None, None)`` when ``pure`` was asked for."""
    if name is None:
        name = default_backend_name()
    elif name not in BACKENDS:
        raise ValueError(
            f"unknown {core.label} {name!r} (choose from {', '.join(BACKENDS)})"
        )
    if name == "pure":
        return None, None, None
    return load_library(core)


def library_status(core: NativeCore) -> dict:
    """Availability of ``core``'s library (built if needed)."""
    lib, path, reason = load_library(core)
    return {"available": lib is not None, "reason": reason, "library": path}


def load_library(core: NativeCore) -> tuple:
    """``(library, path, None)``, or ``(None, None, reason)``; built,
    opened and bound once per process."""
    hit = _libraries.get(core.source)
    if hit is None:
        hit = _libraries[core.source] = _open(core)
    return hit


def _open(core: NativeCore) -> tuple:
    path, reason = build_library(core.source)
    if path is None:
        return None, None, reason
    import ctypes

    types = {"void": None, "int": ctypes.c_int, "i64": ctypes.c_int64,
             "ptr": ctypes.c_void_p}
    try:
        lib = ctypes.CDLL(path)
        for name, (restype, *argtypes) in core.symbols.items():
            fn = getattr(lib, name)
            fn.restype = types[restype]
            fn.argtypes = [types[t] for t in argtypes]
    except (OSError, AttributeError) as exc:
        return None, None, f"failed to load the compiled {core.label}: {exc}"
    return lib, path, None


def _expected_layout_ok() -> bool:
    """The C cores assume b=1, i=4, q=8, d=8 byte items (true on every
    mainstream platform; checked so exotic ABIs fall back)."""
    return (
        array("b").itemsize == 1
        and array("i").itemsize == 4
        and array("q").itemsize == 8
        and array("d").itemsize == 8
    )


def find_compiler() -> str | None:
    """``$CC`` when it resolves, else the first of cc/gcc/clang."""
    env = os.environ.get("CC")
    if env and shutil.which(env):
        return env
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def build_library(src: Path) -> tuple[str | None, str | None]:
    """Compile ``src`` into a cached .so addressed by the hash of its
    source and :data:`CFLAGS`; return (path, None) or (None, reason)."""
    if not _expected_layout_ok():
        return None, ("array item sizes differ from the expected "
                      "b=1/i=4/q=8/d=8")
    if not src.is_file():
        return None, f"{src.name} not found"
    cc = find_compiler()
    if cc is None:
        return None, "no C compiler (cc/gcc/clang) on PATH"
    key = hashlib.sha256(src.read_bytes())
    key.update("\0".join(CFLAGS).encode())
    tag = key.hexdigest()[:16]
    # The directory keeps the name it had when only the SAT core was
    # built here; perfbench/run.py reads it.
    cache = Path(tempfile.gettempdir()) / f"repro-sat-core-{os.getuid()}"
    out = cache / f"{src.stem.lstrip('_')}-{tag}.so"
    if out.exists():
        return str(out), None
    tmp = None
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, str(src)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            return None, f"compile failed: {detail[:300]}"
        os.replace(tmp, out)  # atomic: concurrent builders both win
        tmp = None
        return str(out), None
    except Exception as exc:
        return None, f"compile error: {exc}"
    finally:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
