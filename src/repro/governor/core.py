"""Resource governance: disk quotas, memory watermarks, typed degradation.

Long-lived deployments of the allocation stack (``repro serve``,
``repro sweep``) write unboundedly to disk -- search checkpoints,
proof spools, fabric store segments, flight-recorder JSONL -- and grow
memory without limit: the SAT solver's clause arena and learnt DB, the
warm-start cache, admission queues.  The dominant real-world failure of
such services is not a bug but *exhaustion*: ENOSPC mid-frame, the OOM
killer.  This module bounds both, with the same contract the chaos
harness enforces everywhere else: **typed degradation, never silent
corruption, free when off**.

Disk quota model
----------------

A :class:`Governor` tracks a set of *paths*, each tagged with a
category (``checkpoint`` / ``proof`` / ``fabric`` / ``flight``).  Every
persistence writer calls :func:`charge` with the size of the frame it
is about to write.  Usage is computed from the tracked files' actual
on-disk sizes (self-correcting: retries, repairs and truncations never
double-count).  When the projected usage exceeds the quota the governor
runs its **reclaimers** in priority order:

1. quarantined checkpoint corpses (``*.quarantined``) -- evidence
   nothing reads again; the live checkpoint survives;
2. flight-recorder rotation -- observability, truncated to a single
   rotation marker.

Never reclaimed: live proof spools and fabric store segments.  A proof
spool that cannot grow is *condemned through the existing typed flag*
(``proof_artifact_ok=False``, exit code 3), not truncated; a fabric
segment that cannot grow surfaces as that cell's typed error.  If
reclaiming does not free enough space, :func:`charge` raises
:class:`DiskQuotaExceeded` -- an ``OSError`` with ``errno.ENOSPC``, so
every hardened writer degrades through the *same* path a real full disk
would take.  Because the check runs before the write, usage never
exceeds the quota by more than the one frame being admitted.

Memory watermark model
----------------------

Memory sources register with the governor (the solver's typed-array
bytes, the warm cache's entry estimate, the serve queues).  Pressure is
``used / watermark``, with graduated responses at rising thresholds:

========  ==========  ===================================================
pressure  level       response
========  ==========  ===================================================
>= 0.75   reduce      aggressive learnt-DB reduction (solver-side pull)
>= 0.85   shrink      warm-cache shrink (registered shrinkers run)
>= 0.92   shed        admission sheds new requests as ``overloaded``
>= 1.00   cancel      cooperative ``Budget`` cancellation of in-flight
                      solves (typed ``BUDGET_EXHAUSTED``, never a kill)
========  ==========  ===================================================

Every response is recorded in the flight recorder (when attached) and
counted in :meth:`Governor.stats_dict`, surfaced by ``--stats``.

Chaos integration: ``governor.disk`` forces a quota rejection
regardless of real usage (kind ``disk-full``); ``governor.mem`` is a
flag site forcing pressure to at least 1.0 (kind ``mem-pressure``).

Like the chaos harness, installation is a process-global stack:
:func:`install` / :func:`uninstall` / :func:`governed`; every hook
reduces to one module-global truthiness check when no governor is
installed (``benchmarks/test_governor_overhead.py`` guards < 1%).
"""

from __future__ import annotations

import errno
import os
import threading
import weakref
from dataclasses import dataclass, field

from repro.chaos import chaos_flag, chaos_point

__all__ = [
    "CATEGORIES",
    "LEVELS",
    "DiskQuotaExceeded",
    "GovernorConfig",
    "Governor",
    "install",
    "uninstall",
    "current",
    "governed",
    "charge",
    "track",
    "mem_tick",
]

#: Disk accounting categories, in eviction-priority order where
#: applicable (quarantined checkpoints first, then flight rotation;
#: proof and fabric are never evicted).
CATEGORIES = ("checkpoint", "flight", "proof", "fabric")

#: Memory-pressure levels in escalation order.
LEVELS = ("reduce", "shrink", "shed", "cancel")

#: Fractions of the memory watermark at which ``reduce``, ``shrink``
#: and ``shed`` start (``cancel`` starts at the watermark itself).
REDUCE_PRESSURE, SHRINK_PRESSURE, SHED_PRESSURE = 0.75, 0.85, 0.92


class DiskQuotaExceeded(OSError):
    """The typed quota rejection: an ``OSError`` with ``errno.ENOSPC``
    so hardened writers degrade through their ordinary full-disk
    handling, not through knowledge of the governor."""

    def __init__(self, category: str, requested: int, used: int,
                 quota: int, detail: str = ""):
        msg = (
            f"disk quota exceeded: {category} write of {requested} B "
            f"rejected ({used} B tracked, quota {quota} B"
            + (f"; {detail}" if detail else "") + ")"
        )
        super().__init__(errno.ENOSPC, msg)
        self.category = category
        self.requested = requested
        self.used = used
        self.quota = quota


@dataclass(frozen=True)
class GovernorConfig:
    """Picklable resource limits, carried on ``SolveRequest.governor``
    and ``ServeConfig``; a live :class:`Governor` is built per process.

    ``disk_quota`` bounds the summed size of all tracked state files in
    bytes; ``mem_watermark`` is the memory budget in bytes against
    which pressure is computed.  ``None`` disables that dimension.
    """

    disk_quota: int | None = None
    mem_watermark: int | None = None

    def __post_init__(self) -> None:
        if self.disk_quota is not None and self.disk_quota < 1:
            raise ValueError("disk_quota must be >= 1 byte")
        if self.mem_watermark is not None and self.mem_watermark < 1:
            raise ValueError("mem_watermark must be >= 1 byte")

    @property
    def enabled(self) -> bool:
        return self.disk_quota is not None or self.mem_watermark is not None


@dataclass
class _Stats:
    charges: int = 0
    charged_bytes: int = 0
    quota_rejections: int = 0
    reclaim_runs: int = 0
    reclaimed_bytes: int = 0
    evicted_files: int = 0
    flight_rotations: int = 0
    mem_ticks: int = 0
    responses: dict = field(default_factory=dict)  # level -> count
    peak_disk: int = 0
    peak_mem: int = 0
    peak_pressure: float = 0.0


#: Re-entrancy guard: while the governor is writing its own flight
#: events, nested hooks (the recorder's ``flight.append`` charge) are
#: no-ops, so governance can log to a governed recorder without
#: recursing.
_IN_GOVERNOR = threading.local()


class Governor:
    """One process's live resource governor (thread-safe)."""

    def __init__(self, config: GovernorConfig,
                 recorder=None):
        self.config = config
        #: ``FlightRecorder.log``-shaped callable, or None.
        self.recorder = recorder
        self._lock = threading.RLock()
        self._paths: dict[str, str] = {}  # path -> category
        self._mem_sources: dict[str, object] = {}  # name -> callable
        self._adopted: dict[int, weakref.ref] = {}  # id -> ref w/ memory_bytes
        self._shrinkers: dict[str, object] = {}  # name -> callable
        self._budgets: list = []  # cooperative-cancel targets
        self._level: str | None = None
        self.stats = _Stats()

    # -- observability --------------------------------------------------

    def _log(self, event: str, **extra) -> None:
        if self.recorder is None:
            return
        if getattr(_IN_GOVERNOR, "flag", False):
            return
        _IN_GOVERNOR.flag = True
        try:
            self.recorder(event, **extra)
        except Exception:
            pass  # observability never takes governance down
        finally:
            _IN_GOVERNOR.flag = False

    def stats_dict(self) -> dict:
        with self._lock:
            s = self.stats
            out = {
                "disk_quota": self.config.disk_quota,
                "mem_watermark": self.config.mem_watermark,
                "charges": s.charges,
                "charged_bytes": s.charged_bytes,
                "quota_rejections": s.quota_rejections,
                "reclaim_runs": s.reclaim_runs,
                "reclaimed_bytes": s.reclaimed_bytes,
                "evicted_files": s.evicted_files,
                "flight_rotations": s.flight_rotations,
                "mem_ticks": s.mem_ticks,
                "responses": dict(s.responses),
                "peak_disk": s.peak_disk,
                "peak_mem": s.peak_mem,
                "peak_pressure": round(s.peak_pressure, 4),
            }
        return out

    # -- disk quota -----------------------------------------------------

    def track(self, category: str, path: str) -> None:
        """Start accounting ``path`` under ``category``."""
        if category not in CATEGORIES:
            raise ValueError(f"unknown governor category {category!r}")
        with self._lock:
            self._paths[os.fspath(path)] = category

    def _tracked_files(self) -> list[tuple[str, str, int]]:
        """(path, category, size) for every tracked file that exists,
        including the quarantined corpse of a checkpoint."""
        with self._lock:
            items = list(self._paths.items())
        items += [(f"{path}.quarantined", category)
                  for path, category in items if category == "checkpoint"]
        out = []
        for path, category in dict(items).items():
            try:
                out.append((path, category, os.path.getsize(path)))
            except OSError:
                continue
        return out

    def disk_used(self) -> int:
        return sum(size for _, _, size in self._tracked_files())

    def charge(self, category: str, nbytes: int,
               path: str | None = None) -> None:
        """Admission check for an imminent write of ``nbytes``.

        Registers ``path`` for accounting, reclaims in priority order
        when the projected usage would exceed the quota, and raises
        :class:`DiskQuotaExceeded` when it still would.  The check runs
        *before* the write, so tracked usage can never exceed the quota
        by more than this one frame.
        """
        if path is not None:
            self.track(category, path)
        try:
            chaos_point("governor.disk")
        except OSError as exc:
            with self._lock:
                self.stats.quota_rejections += 1
            used = self.disk_used()
            quota = self.config.disk_quota or 0
            self._log("governor.quota-reject", category=category,
                      requested=nbytes, used=used, quota=quota,
                      forced=True)
            raise DiskQuotaExceeded(
                category, nbytes, used, quota, detail=str(exc)
            ) from exc
        quota = self.config.disk_quota
        with self._lock:
            self.stats.charges += 1
            self.stats.charged_bytes += nbytes
        if quota is None:
            return
        used = self.disk_used()
        with self._lock:
            self.stats.peak_disk = max(self.stats.peak_disk, used)
        if used + nbytes <= quota:
            return
        freed = self._reclaim(used + nbytes - quota)
        if freed:
            used = self.disk_used()
        if used + nbytes <= quota:
            return
        with self._lock:
            self.stats.quota_rejections += 1
        self._log("governor.quota-reject", category=category,
                  requested=nbytes, used=used, quota=quota)
        raise DiskQuotaExceeded(category, nbytes, used, quota)

    def _reclaim(self, need: int) -> int:
        """Free at least ``need`` bytes if possible; returns bytes
        freed.  Priority: quarantined checkpoints, then flight rotation.
        Proof spools and fabric segments are never touched."""
        freed = 0
        evicted = []
        # 1. quarantined checkpoint corpses; the live file survives.
        for path, category, size in self._tracked_files():
            if freed >= need:
                break
            if category != "checkpoint" or not path.endswith(
                    ".quarantined"):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            freed += size
            evicted.append(path)
        # 2. flight-recorder rotation: truncate to a single marker line.
        if freed < need:
            for path, category, size in self._tracked_files():
                if category != "flight" or size == 0:
                    continue
                try:
                    with open(path, "w") as fh:
                        fh.write(
                            '{"event": "governor.flight-rotated", '
                            f'"dropped_bytes": {size}}}\n'
                        )
                except OSError:
                    continue
                freed += size
                with self._lock:
                    self.stats.flight_rotations += 1
                if freed >= need:
                    break
        with self._lock:
            self.stats.reclaim_runs += 1
            self.stats.reclaimed_bytes += freed
            self.stats.evicted_files += len(evicted)
        if freed:
            self._log("governor.reclaim", freed=freed, need=need,
                      evicted=evicted)
        return freed

    # -- memory watermark -----------------------------------------------

    def add_memory_source(self, name: str, fn) -> None:
        """Register a zero-arg callable returning bytes in use."""
        with self._lock:
            self._mem_sources[name] = fn

    def adopt(self, obj) -> None:
        """Weakly track an object exposing ``memory_bytes()`` (e.g. a
        live SAT solver); dead objects drop out automatically."""
        with self._lock:
            self._adopted[id(obj)] = weakref.ref(obj)

    def add_shrinker(self, name: str, fn) -> None:
        """Register a reclaimer for the ``shrink`` level: a zero-arg
        callable returning bytes (approximately) released."""
        with self._lock:
            self._shrinkers[name] = fn

    def register_budget(self, budget) -> None:
        """A ``Budget`` to cancel cooperatively at the ``cancel`` level
        (sets ``expired_reason``, exactly like a server drain)."""
        with self._lock:
            if budget not in self._budgets:
                self._budgets.append(budget)

    def unregister_budget(self, budget) -> None:
        with self._lock:
            if budget in self._budgets:
                self._budgets.remove(budget)

    def memory_used(self) -> int:
        with self._lock:
            sources = list(self._mem_sources.values())
            refs = list(self._adopted.items())
        total = 0
        for fn in sources:
            try:
                total += int(fn())
            except Exception:
                continue
        dead = []
        for key, ref in refs:
            obj = ref()
            if obj is None:
                dead.append(key)
                continue
            try:
                total += int(obj.memory_bytes())
            except Exception:
                continue
        if dead:
            with self._lock:
                for key in dead:
                    self._adopted.pop(key, None)
        return total

    def pressure(self) -> float:
        """Memory pressure in [0, inf): used/watermark, forced to at
        least 1.0 when the ``governor.mem`` chaos flag fires."""
        forced = chaos_flag("governor.mem")
        if self.config.mem_watermark is None:
            real = 0.0
        else:
            used = self.memory_used()
            real = used / self.config.mem_watermark
            with self._lock:
                self.stats.peak_mem = max(self.stats.peak_mem, used)
        p = max(real, 1.0) if forced else real
        with self._lock:
            self.stats.peak_pressure = max(self.stats.peak_pressure, p)
        return p

    def level_for(self, pressure: float) -> str | None:
        if pressure >= 1.0:
            return "cancel"
        if pressure >= SHED_PRESSURE:
            return "shed"
        if pressure >= SHRINK_PRESSURE:
            return "shrink"
        if pressure >= REDUCE_PRESSURE:
            return "reduce"
        return None

    def mem_tick(self) -> str | None:
        """Evaluate pressure and run the graduated responses this
        process can run directly (shrinkers, budget cancellation).
        Returns the level so pull-side callers (the SAT solver) can run
        their own response (learnt-DB reduction).  Rate-limit at the
        call site; the tick itself samples every source."""
        p = self.pressure()
        level = self.level_for(p)
        with self._lock:
            self.stats.mem_ticks += 1
            changed = level != self._level
            self._level = level
            if level is not None:
                self.stats.responses[level] = (
                    self.stats.responses.get(level, 0) + 1
                )
            shrinkers = list(self._shrinkers.items())
            budgets = list(self._budgets)
        if level is None:
            return None
        if changed:
            self._log("governor.mem-pressure", pressure=round(p, 4),
                      level=level)
        if level in ("shrink", "shed", "cancel"):
            for name, fn in shrinkers:
                try:
                    released = fn()
                except Exception:
                    continue
                if released and changed:
                    self._log("governor.shrink", source=name,
                              released=released)
        if level == "cancel":
            for budget in budgets:
                if getattr(budget, "expired_reason", None) is None:
                    budget.expired_reason = "memory watermark exceeded"
                    self._log("governor.cancel",
                              reason="memory watermark exceeded")
        return level


# -- process-global installation ---------------------------------------

#: Stack of installed governors (mirrors ``repro.chaos._ACTIVE``); only
#: the top entry is consulted, and every hook is free when this is
#: empty.
_ACTIVE: list[Governor] = []


def install(governor: Governor) -> None:
    _ACTIVE.append(governor)


def uninstall(governor: Governor) -> None:
    if governor in _ACTIVE:
        _ACTIVE.reverse()
        _ACTIVE.remove(governor)
        _ACTIVE.reverse()


def current() -> Governor | None:
    return _ACTIVE[-1] if _ACTIVE else None


class _Governed:
    """Context manager scoping a governor over a block.  Accepts a
    :class:`GovernorConfig` (builds a fresh :class:`Governor`), a live
    :class:`Governor`, or None (cheap no-op)."""

    def __init__(self, config_or_governor, recorder=None):
        self.governor: Governor | None
        if config_or_governor is None:
            self.governor = None
        elif isinstance(config_or_governor, Governor):
            self.governor = config_or_governor
        elif isinstance(config_or_governor, GovernorConfig):
            if config_or_governor.enabled:
                self.governor = Governor(config_or_governor,
                                         recorder=recorder)
            else:
                self.governor = None
        else:
            raise TypeError(
                "governed() takes a GovernorConfig, a Governor, or None"
            )

    def __enter__(self) -> Governor | None:
        if self.governor is not None:
            install(self.governor)
        return self.governor

    def __exit__(self, *exc) -> None:
        if self.governor is not None:
            uninstall(self.governor)


def governed(config_or_governor, recorder=None) -> _Governed:
    return _Governed(config_or_governor, recorder=recorder)


# -- free-when-off module hooks (the write sites call these) ------------

def charge(category: str, nbytes: int, path: str | None = None) -> None:
    """Account an imminent write at the installed governor, if any.
    Raises :class:`DiskQuotaExceeded` on rejection; free when off."""
    if not _ACTIVE:
        return
    if getattr(_IN_GOVERNOR, "flag", False):
        return  # the governor's own flight events are never governed
    _ACTIVE[-1].charge(category, nbytes, path)


def track(category: str, path: str) -> None:
    """Register a state file for quota accounting; free when off."""
    if not _ACTIVE:
        return
    _ACTIVE[-1].track(category, path)


def mem_tick() -> str | None:
    """Run one memory-watermark evaluation at the installed governor;
    returns the pressure level (or None).  Free when off."""
    if not _ACTIVE:
        return None
    return _ACTIVE[-1].mem_tick()
