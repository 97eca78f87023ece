"""Propagation-core backends for the CDCL/PB engine.

The solver's state lives in flat, buffer-protocol arrays (see
:mod:`repro.sat.solver` and ``docs/SOLVER.md``); the loops that consume
them are swappable.  A backend has four calls: ``propagate``
(watched-literal and PB slack propagation), ``unwind`` (the trail undo
on backtrack), ``load_clauses`` (the level-0 bulk clause loader with
its unit propagation) and ``search`` (the CDCL loop: VSIDS branching,
propagation, first-UIP analysis with its VSIDS bumps, learning and
backjumping, run until the solver has work to do).
Two implementations exist:

- ``pure``  — the reference: plain-Python loops over the same arrays.
  Always available; the semantic ground truth.
- ``fast``  — a C translation of the identical algorithm, compiled on
  first use with the host C compiler and driven through ``ctypes``
  pointers into the same arrays (zero copies).  Falls back to ``pure``
  with a recorded reason when no compiler is available.

Both backends execute the *same* algorithm in the *same* order, so
trails, learnt clauses, VSIDS activities and DRUP proof logs are
bit-identical (asserted by ``tests/test_sat_backends.py``).

The setting, the library loading and the fallback rule are those of
all three compiled cores (:mod:`repro.native`):

- ``REPRO_SAT_BACKEND`` environment variable (``auto`` | ``pure`` |
  ``fast``), read per :class:`~repro.sat.solver.Solver` construction, so
  worker processes inherit the choice;
- CLI ``--backend`` (sets the process default *and* the environment
  variable for spawned workers);
- ``Solver(backend=...)`` for explicit per-instance control.

``auto`` (the default) means: ``fast`` when it can be built, else
``pure``.  This module re-exports the setting for its callers.
"""

from __future__ import annotations

from repro.native import (
    BACKEND_ENV,
    default_backend_name,
    library_status,
    load_library,
    pick,
    set_default_backend,
)
from repro.sat.core.fast import SAT_CORE, FastBackend
from repro.sat.core.pure import PureBackend

__all__ = [
    "get_backend",
    "set_default_backend",
    "default_backend_name",
    "backend_status",
    "probe_fast_backend",
    "BACKEND_ENV",
]


def get_backend(name: str | None = None):
    """Resolve a backend by name (``None`` uses the process default).

    ``auto`` and ``fast`` fall back to ``pure`` when the compiled core
    cannot be built; the fallback is visible through the returned
    backend's ``name`` / ``fallback_reason`` attributes and
    ``backend_status()``.
    """
    lib, path, reason = pick(SAT_CORE, name)
    return FastBackend(lib, path) if lib is not None else PureBackend(reason)


def probe_fast_backend() -> tuple[bool, str | None]:
    """Exercise the compiled core end-to-end on a tiny instance.

    The half-open probe of the allocation server's circuit breaker
    (:class:`repro.serve.breaker.BackendBreaker`): after the breaker
    tripped to the pure core, a periodic call here decides whether the
    compiled core is trustworthy again.  Builds a fresh
    :class:`~repro.sat.solver.Solver` explicitly on the ``fast`` backend
    (per-instance selection, so in-flight solves on other backends are
    untouched) and runs a 3-variable CNF with a known unique answer.

    Returns ``(ok, reason)``; any exception or wrong answer is a
    failure with the reason recorded, never a raise.
    """
    lib, _, reason = load_library(SAT_CORE)
    if lib is None:
        return False, reason
    try:
        from repro.sat.literals import mklit
        from repro.sat.solver import Solver

        s = Solver(backend="fast")
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([mklit(a), mklit(b)])
        s.add_clause([mklit(a, True), mklit(b)])
        s.add_clause([mklit(b, True), mklit(c)])
        if getattr(s.core, "name", None) != "fast":
            return False, "fast backend silently fell back to pure"
        if not s.solve():
            return False, "fast-core probe answered UNSAT on a SAT CNF"
        model = s.model()
        if not (model[b] and model[c]):
            return False, "fast-core probe produced a wrong model"
        return True, None
    except Exception as exc:  # noqa: BLE001 - probe boundary by design
        return False, f"fast-core probe failed: {exc}"


def backend_status() -> dict:
    """Availability report (used by ``--stats``, docs and tests): the
    setting, and the library of each compiled core."""
    from repro.arith.blastcore import BLAST_CORE
    from repro.certify.rupcore import RUP_CORE

    return {
        "default": default_backend_name(),
        "pure": {"available": True},
        "fast": library_status(SAT_CORE),
        "checker": library_status(RUP_CORE),
        "blaster": library_status(BLAST_CORE),
    }
