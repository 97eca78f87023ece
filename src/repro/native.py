"""Build a C source next to this package into a cached shared library.

The three compiled cores -- the SAT engine's ``repro/sat/core/_core.c``,
the RUP checker's ``repro/certify/_rup.c`` and the bit-blaster's
``repro/arith/_blast.c`` -- are compiled on first use with the host C
compiler and loaded through ``ctypes``.  They share
no C code, only this helper: one compile per hash of source and
compiler flags, cached under the system temp directory, so a second
process (or a second run) loads the library without compiling.

Everything here reports failure as ``(None, reason)``; the callers fall
back to their pure-Python twin with that reason recorded.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path

__all__ = ["CFLAGS", "build_library", "find_compiler"]

#: Compiler flags; part of the cache key.  ``-ffp-contract=off`` keeps
#: the SAT core's VSIDS double arithmetic free of fused multiply-adds,
#: so it rounds exactly like the Python reference (GNU C defaults to
#: ``fast``); the RUP and blast cores do no floating point.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


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
            os.unlink(tmp)
            detail = (proc.stderr or proc.stdout or "").strip()
            return None, f"compile failed: {detail[:300]}"
        os.replace(tmp, out)  # atomic: concurrent builders both win
        return str(out), None
    except Exception as exc:
        return None, f"compile error: {exc}"
