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

Selection:

- ``REPRO_SAT_BACKEND`` environment variable (``auto`` | ``pure`` |
  ``fast``), read per :class:`~repro.sat.solver.Solver` construction, so
  worker processes inherit the choice;
- CLI ``--backend`` (sets the process default *and* the environment
  variable for spawned workers);
- ``Solver(backend=...)`` for explicit per-instance control.

``auto`` (the default) means: ``fast`` when it can be built, else
``pure``.
"""

from __future__ import annotations

import os

__all__ = [
    "get_backend",
    "set_default_backend",
    "default_backend_name",
    "backend_status",
    "probe_fast_backend",
    "BACKEND_ENV",
]

BACKEND_ENV = "REPRO_SAT_BACKEND"
_VALID = ("auto", "pure", "fast")

#: Process-level default; ``None`` defers to the environment variable.
_default: str | None = None

_pure = None          # singleton PureBackend
_fast = None          # singleton FastBackend or False (tried, unavailable)
_fast_reason = ""     # why the fast backend is unavailable, if it is


def _pure_backend():
    global _pure
    if _pure is None:
        from repro.sat.core.pure import PureBackend

        _pure = PureBackend()
    return _pure


def _fast_backend():
    """The compiled backend, or ``None`` (with the reason recorded)."""
    global _fast, _fast_reason
    if _fast is None:
        try:
            from repro.sat.core.fast import load_fast_backend

            backend, reason = load_fast_backend()
        except Exception as exc:  # defensive: never break solver import
            backend, reason = None, f"fast backend loader failed: {exc}"
        _fast = backend if backend is not None else False
        _fast_reason = reason or ""
    return _fast if _fast is not False else None


def set_default_backend(name: str | None) -> None:
    """Set the process-wide default backend (``None`` resets to env)."""
    global _default
    if name is not None and name not in _VALID:
        raise ValueError(
            f"unknown SAT backend {name!r} (choose from {', '.join(_VALID)})"
        )
    _default = name


def default_backend_name() -> str:
    """The currently requested backend name (before resolution)."""
    if _default is not None:
        return _default
    env = os.environ.get(BACKEND_ENV, "auto").strip().lower()
    return env if env in _VALID else "auto"


def get_backend(name: str | None = None):
    """Resolve a backend by name (``None`` uses the process default).

    ``fast`` falls back to ``pure`` when the compiled core cannot be
    built; the fallback is visible through the returned backend's
    ``name`` / ``fallback_reason`` attributes and ``backend_status()``.
    """
    requested = name if name is not None else default_backend_name()
    if requested not in _VALID:
        raise ValueError(
            f"unknown SAT backend {requested!r} "
            f"(choose from {', '.join(_VALID)})"
        )
    if requested in ("auto", "fast"):
        fast = _fast_backend()
        if fast is not None:
            return fast
        if requested == "fast":
            # Explicit request: honor it with the reference core but
            # record why the compiled one is missing.
            pure = _pure_backend()
            pure.fallback_reason = _fast_reason
            return pure
    return _pure_backend()


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
    if _fast_backend() is None:
        return False, _fast_reason or "fast backend unavailable"
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
    """Availability report (used by ``--stats``, docs and tests)."""
    fast = _fast_backend()
    return {
        "default": default_backend_name(),
        "pure": {"available": True},
        "fast": {
            "available": fast is not None,
            "reason": _fast_reason or None,
            "library": getattr(fast, "library_path", None),
        },
    }
