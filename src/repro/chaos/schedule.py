"""Deterministic chaos engineering for the solve stack.

This module is the stack-wide registry of **named fault sites**, the
one fault injector of the repository.  Code on a hardened path declares
a site by calling :func:`chaos_point` (control faults) or
:func:`chaos_data` (data faults) at the exact moment the real world
could misbehave; a seeded :class:`ChaosSchedule` decides *if* and *how*
that site misbehaves on its n-th execution.

Design constraints, in order:

1. **Deterministic.**  A schedule is a finite list of
   :class:`ChaosFault` entries built from a seed or a named profile.
   Site executions are counted in ``state_dir`` through atomic
   single-byte-append counter files, so counting is correct across
   worker processes *and* across a kill/resume sequence of the same
   run (a resumed process continues the counts, so an already-fired
   one-shot fault does not re-fire).
2. **Free when off.**  ``chaos_point`` returns after one module-global
   truthiness check when no schedule is installed, so a site costs a
   function call and a falsy check.  ``benchmarks/test_chaos_overhead.py``
   guards this.
3. **Observable.**  Every injected fault is appended to
   ``state_dir/chaos-events.jsonl`` (one JSON object per line, written
   with a single ``write`` call so concurrent workers interleave whole
   lines; read back through the torn-tolerant
   :func:`repro.robust.flight.read_events`) -- CI uploads this log as
   an artifact of the chaos smoke job.

Fault kinds
-----------

- ``"crash"``         -- ``os._exit(CHAOS_EXIT_CODE)``: the process dies
  on the spot, like a SIGKILL / OOM kill.
- ``"hang"``          -- sleep ``hang_seconds`` (a wedged syscall; kept
  short by default so watchdogs, not the harness, provide liveness).
- ``"io-error"``      -- raise :class:`ChaosIOError` (an ``OSError``):
  the failed write / failed spawn / wedged queue case.
- ``"torn-write"``    -- data faults only: the first half of the bytes
  reach the medium, the rest are lost (crash between two ``write``\\ s).
- ``"corrupt-bytes"`` -- data faults only: one byte is flipped in
  transit (bit rot, a buggy NIC, a hostile filesystem).
- ``"disk-full"``     -- raise :class:`ChaosDiskFull` (an ``OSError``
  with ``errno.ENOSPC``); at data sites the *prefix* of the frame up to
  the fault's ``offset`` (default: half) reaches the medium first --
  the mid-write partial-frame shape of a real full disk.
- ``"mem-pressure"``  -- flag-only: :func:`chaos_flag` reports True, so
  the resource governor (``repro.governor``) sees its memory watermark
  as exceeded without the harness allocating a single byte.

Sites
-----

======================  ====================================================
``checkpoint.write``    checkpoint bytes on their way to disk (data)
``checkpoint.fsync``    the fsync of a checkpoint record append
``proof.append``        proof-artifact record bytes on their way to disk
``supervisor.stage``    entry of a supervised exact stage
``fabric.store.append`` result-store record bytes on their way to disk (data)
``fabric.store.fsync``  the fsync after a result-store append
``fabric.lease.renew``  a fabric worker's lease heartbeat renewal
``fabric.worker.claim`` a fabric worker claiming a job lease
``sweep.cell``          a sweep cell about to run (crash / hang / raise)
``serve.accept``        the allocation server admitting one request
``serve.queue``         enqueue/dequeue on a tenant admission queue
``serve.cache``         a warm-start cache lookup or store
``serve.worker``        a serve worker picking up a solve
``serve.drain``         one step of the SIGTERM drain sequence
``flight.append``       flight-recorder JSONL bytes on their way to disk (data)
``governor.disk``       a disk-quota admission check in the governor
``governor.mem``        a memory-watermark reading in the governor
======================  ====================================================
"""

from __future__ import annotations

import errno
import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "SITES",
    "KINDS",
    "SITE_KINDS",
    "PROFILES",
    "CHAOS_EXIT_CODE",
    "ChaosIOError",
    "ChaosDiskFull",
    "ChaosFault",
    "ChaosSchedule",
    "chaos_point",
    "chaos_data",
    "chaos_flag",
    "install",
    "uninstall",
    "current",
    "active",
    "EVENT_LOG_NAME",
]

#: Exit code of a chaos-injected process crash (distinctive, so logs
#: tell an injected death from a real one).
CHAOS_EXIT_CODE = 86

EVENT_LOG_NAME = "chaos-events.jsonl"

SITES = (
    "checkpoint.write",
    "checkpoint.fsync",
    "proof.append",
    "supervisor.stage",
    "fabric.store.append",
    "fabric.store.fsync",
    "fabric.lease.renew",
    "fabric.worker.claim",
    "sweep.cell",
    "serve.accept",
    "serve.queue",
    "serve.cache",
    "serve.worker",
    "serve.drain",
    "flight.append",
    "governor.disk",
    "governor.mem",
)

KINDS = ("crash", "hang", "io-error", "torn-write", "corrupt-bytes",
         "disk-full", "mem-pressure")

#: Which kinds make sense where.  Control sites (``chaos_point``) cannot
#: tear or corrupt bytes; ``crash`` is limited to sites that execute in
#: expendable worker processes -- crashing the coordinating parent is
#: the SIGKILL scenario, covered by tests/test_kill_resume.py killing
#: the whole process from outside rather than by an in-process site.
SITE_KINDS = {
    "checkpoint.write": ("io-error", "torn-write", "corrupt-bytes",
                         "disk-full"),
    "checkpoint.fsync": ("io-error", "hang", "disk-full"),
    "proof.append": ("io-error", "torn-write", "corrupt-bytes",
                     "disk-full"),
    "supervisor.stage": ("io-error",),
    "fabric.store.append": ("io-error", "torn-write", "corrupt-bytes",
                            "disk-full"),
    "fabric.store.fsync": ("io-error", "hang", "disk-full"),
    "fabric.lease.renew": ("crash", "hang", "io-error"),
    "fabric.worker.claim": ("crash", "hang", "io-error"),
    # The cell itself: crash = a segfaulting / OOM-killed worker, hang =
    # a wedged solve, io-error = an ordinary cell error (raised inside
    # the cell's try, so it is recorded like any exception of ``fn``).
    "sweep.cell": ("crash", "hang", "io-error"),
    # Serve sites run inside the (long-lived) server process, so crash
    # is excluded like supervisor.stage: killing the whole server is the
    # SIGTERM/SIGKILL restart scenario, covered by the drain/resume
    # torture tests from outside rather than by an in-process site.
    "serve.accept": ("hang", "io-error"),
    "serve.queue": ("hang", "io-error"),
    "serve.cache": ("hang", "io-error"),
    "serve.worker": ("hang", "io-error"),
    "serve.drain": ("hang", "io-error"),
    "flight.append": ("io-error", "torn-write", "corrupt-bytes",
                      "disk-full"),
    # Governor sites: resource exhaustion seen *by the governor itself*.
    # ``governor.disk`` forces a quota rejection regardless of real
    # usage; ``governor.mem`` is flag-only (queried via chaos_flag) and
    # forces the watermark over threshold.
    "governor.disk": ("disk-full", "io-error"),
    "governor.mem": ("mem-pressure",),
}


class ChaosIOError(OSError):
    """The injected ``io-error`` fault (an :class:`OSError` on purpose:
    hardened code must survive it through its *ordinary* error
    handling, not through knowledge of the harness)."""


class ChaosDiskFull(ChaosIOError):
    """The injected ``disk-full`` fault: an ``OSError`` carrying
    ``errno.ENOSPC`` so hardened code sees exactly what a full disk
    produces.  ``partial`` holds the frame prefix that reached the
    medium before space ran out (empty at control sites); data-site
    callers land it before handling the error, so torn-tail repair --
    not luck -- decides what survives."""

    def __init__(self, site: str, partial: bytes = b""):
        super().__init__(
            errno.ENOSPC, f"chaos: injected disk-full at {site}"
        )
        self.site = site
        self.partial = partial


@dataclass(frozen=True)
class ChaosFault:
    """One scheduled fault: ``site`` misbehaves as ``kind`` on its
    executions number ``trigger`` .. ``trigger + repeat - 1`` (1-based,
    counted across all processes of the run)."""

    site: str
    trigger: int
    kind: str
    repeat: int = 1
    #: For ``disk-full`` at data sites only: how many bytes of the frame
    #: reach the medium before ENOSPC (None = half the frame).
    offset: int | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown chaos site {self.site!r}")
        allowed = SITE_KINDS[self.site]
        if self.kind not in allowed:
            raise ValueError(
                f"kind {self.kind!r} not allowed at {self.site!r} "
                f"(allowed: {', '.join(allowed)})"
            )
        if self.trigger < 1 or self.repeat < 1:
            raise ValueError("trigger and repeat must be >= 1")
        if self.offset is not None:
            if self.kind != "disk-full":
                raise ValueError("offset is only meaningful for disk-full")
            if self.offset < 0:
                raise ValueError("offset must be >= 0")


#: Named profiles: curated schedules for the CLI and the CI smoke job.
#: Each entry is ``(site, trigger, kind, repeat)``.
PROFILES: dict[str, tuple[tuple[str, int, str, int], ...]] = {
    "checkpoint-torture": (
        ("checkpoint.fsync", 1, "io-error", 1),
        ("checkpoint.write", 2, "torn-write", 1),
        ("checkpoint.write", 4, "corrupt-bytes", 1),
    ),
    "proof-tamper": (
        ("proof.append", 1, "torn-write", 1),
        ("proof.append", 3, "corrupt-bytes", 1),
    ),
    "fabric": (
        ("fabric.store.append", 2, "torn-write", 1),
        ("fabric.store.fsync", 3, "io-error", 1),
        ("fabric.lease.renew", 2, "io-error", 1),
        ("fabric.worker.claim", 3, "crash", 1),
    ),
    "serve": (
        ("serve.accept", 2, "io-error", 1),
        ("serve.queue", 3, "io-error", 1),
        ("serve.cache", 1, "io-error", 2),
        ("serve.worker", 2, "io-error", 1),
        ("serve.drain", 1, "io-error", 1),
    ),
    "full-stack": (
        ("checkpoint.write", 1, "torn-write", 1),
        ("checkpoint.fsync", 2, "io-error", 1),
        ("proof.append", 2, "torn-write", 1),
        ("supervisor.stage", 1, "io-error", 1),
    ),
    # Resource exhaustion: a full disk at every persistence writer plus
    # the governor's own admission check, and a forced memory watermark.
    "resource": (
        ("checkpoint.write", 1, "disk-full", 1),
        ("proof.append", 2, "disk-full", 1),
        ("fabric.store.append", 2, "disk-full", 1),
        ("flight.append", 1, "disk-full", 1),
        ("governor.disk", 2, "disk-full", 1),
        ("governor.mem", 1, "mem-pressure", 4),
    ),
}


class ChaosSchedule:
    """A deterministic, picklable set of scheduled faults.

    Execution counts live in ``state_dir`` (one counter file per site),
    so one schedule object -- or pickled copies of it in worker
    processes -- observes a single global per-site execution sequence.
    """

    def __init__(
        self,
        state_dir: str,
        faults: list[ChaosFault] | tuple[ChaosFault, ...],
        hang_seconds: float = 0.25,
        seed: int | None = None,
        label: str | None = None,
    ):
        self.state_dir = state_dir
        self.faults = tuple(faults)
        self.hang_seconds = float(hang_seconds)
        self.seed = seed
        self.label = label
        self._by_site: dict[str, tuple[ChaosFault, ...]] = {}
        for f in self.faults:
            self._by_site[f.site] = self._by_site.get(f.site, ()) + (f,)
        os.makedirs(state_dir, exist_ok=True)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_seed(
        cls,
        seed: int,
        state_dir: str,
        sites: tuple[str, ...] | None = None,
        max_faults: int = 5,
        max_trigger: int = 6,
        hang_seconds: float = 0.25,
    ) -> "ChaosSchedule":
        """A randomized-but-pinned schedule: same seed, same faults."""
        rng = random.Random(seed)
        pool = tuple(sites) if sites is not None else SITES
        faults = []
        for _ in range(rng.randint(1, max_faults)):
            site = rng.choice(pool)
            kind = rng.choice(SITE_KINDS[site])
            faults.append(
                ChaosFault(
                    site,
                    trigger=rng.randint(1, max_trigger),
                    kind=kind,
                    repeat=rng.randint(1, 2),
                )
            )
        return cls(state_dir, faults, hang_seconds=hang_seconds,
                   seed=seed, label=f"seed:{seed}")

    @classmethod
    def from_profile(
        cls, name: str, state_dir: str, hang_seconds: float = 0.25
    ) -> "ChaosSchedule":
        try:
            spec = PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown chaos profile {name!r} "
                f"(available: {', '.join(sorted(PROFILES))})"
            ) from None
        faults = [ChaosFault(site, trig, kind, rep)
                  for site, trig, kind, rep in spec]
        return cls(state_dir, faults, hang_seconds=hang_seconds,
                   label=f"profile:{name}")

    # -- cross-process counting (atomic single-byte appends) ------------

    def _counter_path(self, site: str) -> str:
        return os.path.join(
            self.state_dir, f"site-{site.replace('.', '_')}.count"
        )

    def executions_of(self, site: str) -> int:
        """How many times ``site`` has executed under this schedule."""
        try:
            return os.path.getsize(self._counter_path(site))
        except OSError:
            return 0

    @property
    def event_log_path(self) -> str:
        return os.path.join(self.state_dir, EVENT_LOG_NAME)

    def events(self) -> list[dict]:
        """The injected-fault log (empty when nothing fired yet; a torn
        last line is skipped)."""
        # Imported here: the flight recorder is itself a chaos site.
        from repro.robust.flight import read_events

        return read_events(self.event_log_path)

    def _log_event(self, site: str, kind: str, count: int) -> None:
        # A raw append, not a FlightRecorder: a writer behind the
        # ``flight.append`` site would count (and fault) its own site.
        record = {
            "site": site,
            "kind": kind,
            "execution": count,
            "pid": os.getpid(),
            "label": self.label,
        }
        try:
            with open(self.event_log_path, "a") as fh:
                fh.write(json.dumps(record) + "\n")
        except OSError:
            pass  # the event log must never take the run down

    # -- the decision ---------------------------------------------------

    def hit(self, site: str) -> str | None:
        """Record one execution of ``site``; return the fault kind to
        inject now, or None.  Sites with no scheduled fault skip the
        counter-file round-trip entirely."""
        fault = self.hit_fault(site)
        return fault.kind if fault is not None else None

    def hit_fault(self, site: str) -> ChaosFault | None:
        """Like :meth:`hit` but returns the whole scheduled fault, so
        data sites can honour per-fault parameters (``offset``)."""
        entries = self._by_site.get(site)
        if not entries:
            return None
        with open(self._counter_path(site), "ab") as fh:
            fh.write(b".")
            fh.flush()
            count = fh.tell()  # executions including this one
        for f in entries:
            if f.trigger <= count < f.trigger + f.repeat:
                self._log_event(site, f.kind, count)
                return f
        return None

    def describe(self) -> str:
        parts = [f"{f.site}@{f.trigger}" +
                 (f"x{f.repeat}" if f.repeat > 1 else "") + f":{f.kind}"
                 for f in self.faults]
        head = self.label or "chaos"
        return f"{head} [{', '.join(parts)}]"


# -- process-global installation ---------------------------------------

#: Stack of installed schedules (a stack for re-entrancy: a supervised
#: solve wraps `active()` around stages that wrap it again).  Only the
#: top entry is consulted.
_ACTIVE: list[ChaosSchedule] = []


def install(schedule: ChaosSchedule) -> None:
    """Install ``schedule`` for the rest of this process's life (worker
    processes call this once on startup)."""
    _ACTIVE.append(schedule)


def uninstall(schedule: ChaosSchedule) -> None:
    if schedule in _ACTIVE:
        _ACTIVE.reverse()
        _ACTIVE.remove(schedule)
        _ACTIVE.reverse()


def current() -> ChaosSchedule | None:
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def active(schedule: ChaosSchedule | None):
    """Scope ``schedule`` over a block; ``None`` is a cheap no-op (so
    call sites can pass ``request.chaos`` unconditionally)."""
    if schedule is None:
        yield
        return
    _ACTIVE.append(schedule)
    try:
        yield
    finally:
        if _ACTIVE and _ACTIVE[-1] is schedule:
            _ACTIVE.pop()
        else:  # pragma: no cover - unbalanced install/uninstall
            uninstall(schedule)


# -- the fault sites ----------------------------------------------------

def chaos_point(site: str) -> None:
    """A control fault site.  Free when no schedule is installed.

    ``crash`` exits the process, ``hang`` sleeps, ``io-error`` raises
    :class:`ChaosIOError`; data kinds are rejected at schedule build
    time for control sites.
    """
    if not _ACTIVE:
        return
    sched = _ACTIVE[-1]
    kind = sched.hit(site)
    if kind is None:
        return
    if kind == "crash":
        os._exit(CHAOS_EXIT_CODE)
    if kind == "hang":
        time.sleep(sched.hang_seconds)
        return
    if kind == "mem-pressure":
        return  # flag-only kind: consulted through chaos_flag
    if kind == "disk-full":
        raise ChaosDiskFull(site)
    raise ChaosIOError(f"chaos: injected {kind} at {site}")


def chaos_data(site: str, data: bytes) -> tuple[bytes, str | None]:
    """A data fault site: bytes on their way to a medium.

    Returns ``(possibly_damaged_bytes, fault_kind_or_None)``.  A
    ``torn-write`` keeps the first half; ``corrupt-bytes`` flips one
    byte in the middle.  ``io-error`` raises; ``crash`` exits.  The
    caller decides what "the damaged bytes reached the medium" means
    for its format.
    """
    if not _ACTIVE:
        return data, None
    sched = _ACTIVE[-1]
    fault = sched.hit_fault(site)
    if fault is None:
        return data, None
    kind = fault.kind
    if kind == "crash":
        os._exit(CHAOS_EXIT_CODE)
    if kind == "hang":
        time.sleep(sched.hang_seconds)
        return data, None
    if kind == "io-error":
        raise ChaosIOError(f"chaos: injected io-error at {site}")
    if kind == "disk-full":
        cut = len(data) // 2 if fault.offset is None else fault.offset
        raise ChaosDiskFull(site, partial=data[: min(cut, len(data))])
    if kind == "torn-write":
        return data[: len(data) // 2], kind
    # corrupt-bytes: flip one byte mid-payload (or the only byte).
    if not data:
        return data, kind
    buf = bytearray(data)
    buf[len(buf) // 2] ^= 0xFF
    return bytes(buf), kind


def chaos_flag(site: str) -> bool:
    """A non-raising, non-mutating query site: does a scheduled fault
    fire at this execution?  Used for conditions the harness *asserts*
    rather than injects -- ``governor.mem`` answering True forces the
    memory watermark over threshold without allocating anything.  Free
    when no schedule is installed."""
    if not _ACTIVE:
        return False
    return _ACTIVE[-1].hit(site) is not None
