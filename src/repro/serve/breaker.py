"""Circuit breaker around the compiled SAT propagation core.

The PR 7 ``fast`` core is bit-identical to the pure-Python reference by
construction, but it is still native code loaded through ``ctypes`` --
a broken toolchain, a bad rebuild, or a latent platform issue surfaces
as solver-side exceptions.  A long-lived server must not keep feeding
requests into a faulting backend, and must also not stay degraded
forever after a transient problem.  Classic circuit breaker:

- **closed** (healthy): solves run on whatever backend the process
  default resolves to.  Backend-attributed failures increment a
  consecutive-failure counter; any success resets it.
- **open** (tripped): after ``threshold`` consecutive failures on the
  ``fast`` core, the breaker flips the *process default* to ``pure``
  (:func:`repro.native.set_default_backend`) so every subsequent
  solve runs its SAT engine, proof checker and bit-blaster on the
  reference cores, and records the reason.  In-flight solves are
  untouched -- the setting is read when each core is built.
- **half-open** (probing): after ``cooldown`` seconds, the next
  :meth:`maybe_probe` runs :func:`repro.sat.core.probe_fast_backend`
  -- a tiny CNF solved end-to-end on an explicit ``fast``-backend
  solver.  A correct answer closes the breaker and restores the
  previous default; anything else re-opens it for another cooldown.

All transitions are recorded (state, reason, monotonic timestamps) and
optionally emitted to the server's flight recorder via ``on_event``.
The breaker is called from solver worker threads, so it carries its own
lock.
"""

from __future__ import annotations

import threading
import time

__all__ = ["BackendBreaker"]


class BackendBreaker:
    """Trip to the pure core after consecutive compiled-core faults."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        probe=None,
        clock=time.monotonic,
        on_event=None,
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        from repro.sat.core import probe_fast_backend

        self.threshold = threshold
        self.cooldown = cooldown
        self._probe = probe if probe is not None else probe_fast_backend
        self._clock = clock
        self._on_event = on_event
        self._lock = threading.Lock()
        self.state = "closed"
        self.failures = 0
        self.reason: str | None = None
        self.opened_at: float | None = None
        self.trips = 0
        self.probes = 0
        #: Default backend name to restore when the probe passes.
        self._restore: str | None = None

    def _emit(self, event: str, **extra) -> None:
        if self._on_event is not None:
            try:
                self._on_event(event, **extra)
            except Exception:  # noqa: BLE001 - telemetry must not bite
                pass

    # ------------------------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            self.failures = 0

    def record_failure(self, reason: str, backend: str | None) -> bool:
        """Count one solve failure attributed to ``backend``.

        Only failures that happened while the compiled core was in play
        count -- a pure-core failure is a logic problem the breaker
        cannot route around.  Returns True when this failure tripped
        the breaker open.
        """
        from repro.native import default_backend_name, set_default_backend

        with self._lock:
            if backend != "fast" or self.state == "open":
                return False
            self.failures += 1
            if self.failures < self.threshold:
                return False
            self.state = "open"
            self.trips += 1
            self.reason = reason
            self.opened_at = self._clock()
            self._restore = default_backend_name()
            set_default_backend("pure")
        self._emit(
            "breaker.open",
            reason=reason,
            failures=self.failures,
            restore=self._restore,
        )
        return True

    def maybe_probe(self) -> bool:
        """Half-open probe when the cooldown elapsed.

        Returns True when the breaker closed (compiled core restored).
        Called between solves from worker threads; cheap when closed or
        still cooling down.
        """
        from repro.native import set_default_backend

        with self._lock:
            if self.state != "open":
                return False
            now = self._clock()
            if self.opened_at is not None and now - self.opened_at < self.cooldown:
                return False
            # Half-open: this thread owns the probe; others see "open"
            # with a refreshed window and stay on the pure core.
            self.opened_at = now
            self.probes += 1
        ok, reason = self._probe()
        with self._lock:
            if ok:
                self.state = "closed"
                self.failures = 0
                self.reason = None
                set_default_backend(self._restore)
        if ok:
            self._emit("breaker.close", restore=self._restore)
            return True
        self._emit("breaker.reopen", reason=reason)
        return False

    def status(self) -> dict:
        with self._lock:
            return {
                "state": self.state,
                "failures": self.failures,
                "threshold": self.threshold,
                "reason": self.reason,
                "trips": self.trips,
                "probes": self.probes,
            }
