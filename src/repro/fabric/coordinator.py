"""The fabric coordinator: work-stealing workers under leases.

:func:`fabric_sweep` is the run loop that ties the pieces together:

1. every parameter becomes a content-addressed :class:`~repro.fabric.
   jobs.Job`; cells already present in the :class:`~repro.fabric.store.
   ResultStore` are restored, not re-run (dedupe across runs and
   machines sharing the directory);
2. ``workers`` processes each claim pending jobs under expiring leases
   (:class:`~repro.fabric.lease.LeaseBoard`), renew them from a
   heartbeat thread while the cell solves, append the result to their
   own store segment, and release;
3. the coordinator supervises: it **reaps** expired leases (a SIGKILLed
   or wedged worker's job returns to the pool and a peer steals it),
   kills workers whose heartbeat file went stale, and respawns dead
   workers from a bounded budget;
4. failure is bounded and honest: claims are counted, a job claimed
   more than ``max_attempts`` times without a result is poisoned and
   recorded as a failed cell, and when the respawn budget or
   ``run_timeout`` is exhausted the run returns a **partial** result
   set with explicit per-cell errors -- never a hang.

Worker/coordinator lifecycle events go to
``<fabric_dir>/fabric-events.jsonl`` through a
:class:`~repro.robust.flight.FlightRecorder` (``actor`` is
``coordinator`` or the worker name) -- uploaded by the CI smoke job.

This is the repository's only sweep runner.  Two contract points
follow from the store: cell values must be JSON-serializable (a value
that is not becomes an error record; tuples come back as lists), and
duplicate parameters share one content address, so they run once and
report the same record.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.chaos import active, chaos_point
from repro.fabric.jobs import Job, make_jobs
from repro.fabric.lease import LeaseBoard
from repro.fabric.store import FabricStoreError, ResultStore
from repro.robust.flight import FlightRecorder

__all__ = [
    "FabricOutcome",
    "SweepResult",
    "default_processes",
    "fabric_sweep",
    "EVENTS_NAME",
]

EVENTS_NAME = "fabric-events.jsonl"

#: A worker whose heartbeat file is older than this many lease TTLs is
#: presumed wedged and killed (its leases then expire and are stolen).
_HB_STALE_TTLS = 4.0

#: Seconds each worker gets to exit on its own once STOP is touched: short
#: when every job is done or poisoned (a worker still busy can only be
#: re-running a recorded cell), long on a degraded exit, where a worker
#: may still be finishing a cell nobody recorded yet.
_DONE_GRACE = 1.0
_DEGRADED_GRACE = 5.0


@dataclass
class SweepResult:
    """Outcome of one sweep cell (``error`` holds the full traceback)."""

    param: Any
    value: Any = None
    error: str | None = None
    seconds: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def default_processes() -> int:
    """A conservative worker count: physical parallelism minus one."""
    return max(1, (os.cpu_count() or 2) - 1)


def _touch(path: str) -> None:
    try:
        with open(path, "a"):
            os.utime(path, None)
    except OSError:
        pass


@dataclass
class _WorkerSpec:
    """Everything a worker process needs (picklable)."""

    fn: Callable
    jobs: list  # list[Job], preferred-first order for this worker
    name: str
    fabric_dir: str
    hb_path: str
    stop_path: str
    lease_ttl: float
    max_attempts: int
    retry_errors: bool
    backoff: float
    job_timeout: float | None
    poll_interval: float
    chaos: object | None


def _short(key: str) -> str:
    return key[:12]


def _heartbeat(spec: _WorkerSpec, board: LeaseBoard, job: Job,
               stop_evt: threading.Event, stolen_evt: threading.Event
               ) -> None:
    """Renew the lease (and the liveness file) while the cell runs.

    Stops renewing -- deliberately -- once ``job_timeout`` is exceeded:
    from then on the reaper may hand the job to a peer and the
    coordinator may kill this worker; the store's dedupe keeps exactly
    one result if both finish anyway.  A failed renewal (io-error) is
    one missed beat, retried on the next; a lease observed under
    another owner sets ``stolen_evt``.
    """
    start = time.monotonic()
    interval = max(0.05, spec.lease_ttl / 3.0)
    while not stop_evt.wait(interval):
        if (spec.job_timeout is not None
                and time.monotonic() - start > spec.job_timeout):
            return
        _touch(spec.hb_path)
        try:
            if not board.renew(job.key, spec.name):
                stolen_evt.set()
                return
        except OSError:
            continue  # missed beat; the TTL gives us slack for a retry


def _run_leased(spec: _WorkerSpec, board: LeaseBoard, job: Job
                ) -> tuple[Any, str | None, float]:
    """Run one claimed cell with the heartbeat alive; returns
    ``(value, error_traceback, seconds)``."""
    stop_evt = threading.Event()
    stolen_evt = threading.Event()
    beat = threading.Thread(
        target=_heartbeat, args=(spec, board, job, stop_evt, stolen_evt),
        daemon=True,
    )
    beat.start()
    t0 = time.perf_counter()
    value, error = None, None
    try:
        chaos_point("sweep.cell")
        value = spec.fn(job.param)
    except Exception:  # noqa: BLE001 - cell isolation by design
        error = traceback.format_exc()
    finally:
        stop_evt.set()
        beat.join(timeout=1.0)
    return value, error, time.perf_counter() - t0


def _append_result(writer, events: FlightRecorder, record: dict) -> bool:
    """Append one record, degrading honestly: an unserializable value
    becomes an error record, a store failure is logged and the job is
    left unrecorded (a peer or retry re-runs it)."""
    try:
        writer.append(record)
        return True
    except (TypeError, ValueError):
        fallback = dict(record)
        fallback["value"] = None
        fallback["error"] = (
            "fabric: cell value is not JSON-serializable"
        )
        try:
            writer.append(fallback)
            return True
        except (TypeError, ValueError, FabricStoreError, OSError):
            pass
    except (FabricStoreError, OSError) as exc:
        events.log("store-failure", key=_short(record.get("key", "")),
                   reason=str(exc))
    return False


def _worker_loop(spec: _WorkerSpec) -> None:
    """The work-stealing loop: scan, claim, run, append, repeat."""
    board = LeaseBoard(spec.fabric_dir, ttl=spec.lease_ttl,
                       max_attempts=spec.max_attempts)
    store = ResultStore(spec.fabric_dir)
    writer = store.writer(spec.name)
    events = FlightRecorder(
        os.path.join(spec.fabric_dir, EVENTS_NAME), spec.name
    )
    try:
        while True:
            _touch(spec.hb_path)
            if os.path.exists(spec.stop_path):
                return
            done = set(store.scan().records)
            todo = [j for j in spec.jobs
                    if j.key not in done and board.poisoned(j.key) is None]
            if not todo:
                return
            progressed = False
            now = time.time()
            for job in todo:
                if board.held(job.key, now):
                    continue
                if now < board.claimable_at(job.key, spec.backoff):
                    continue
                try:
                    if not board.claim(job.key, spec.name):
                        continue
                except OSError:
                    continue  # claim path failed; try another job
                progressed = True
                attempt = board.bump_attempts(job.key)
                if attempt > spec.max_attempts:
                    reason = (f"poisoned after {attempt - 1} failed "
                              f"claims (max_attempts={spec.max_attempts})")
                    board.poison(job.key, reason)
                    events.log("poisoned", key=_short(job.key),
                               attempts=attempt - 1)
                    _append_result(writer, events, {
                        "key": job.key, "param": job.param,
                        "value": None, "error": f"fabric: {reason}",
                        "seconds": 0.0, "attempts": attempt - 1,
                        "worker": spec.name,
                    })
                    board.release(job.key, spec.name)
                    break
                events.log("claimed", key=_short(job.key), attempt=attempt)
                value, error, seconds = _run_leased(spec, board, job)
                if (error is not None and spec.retry_errors
                        and attempt < spec.max_attempts):
                    events.log("retry", key=_short(job.key),
                               attempt=attempt)
                else:
                    recorded = _append_result(writer, events, {
                        "key": job.key, "param": job.param,
                        "value": value, "error": error,
                        "seconds": round(seconds, 6), "attempts": attempt,
                        "worker": spec.name,
                    })
                    if recorded:
                        events.log(
                            "completed" if error is None else "failed",
                            key=_short(job.key), attempt=attempt,
                            seconds=round(seconds, 3),
                        )
                board.release(job.key, spec.name)
                break  # rescan: fresh done-set, stop file, steal order
            if not progressed:
                # Everything pending is leased or backing off: help the
                # reaper (idempotent) and wait for work to free up.
                for key in board.reap():
                    events.log("reaped", key=_short(key))
                time.sleep(spec.poll_interval)
    finally:
        writer.close()


def _worker_main(spec: _WorkerSpec) -> None:  # pragma: no cover - subprocess
    if spec.chaos is not None:
        from repro import chaos as chaos_mod

        chaos_mod.install(spec.chaos)
    _worker_loop(spec)


@dataclass
class FabricOutcome:
    """What a fabric run produced, with its honesty flags."""

    results: list  # list[SweepResult], parameter order
    jobs: list  # list[Job]
    stats: dict = field(default_factory=dict)
    #: True when the run ended with unfinished cells (respawn budget or
    #: run_timeout exhausted) -- the per-cell errors say which.
    degraded: bool = False

    @property
    def complete(self) -> bool:
        return all(r.error is None for r in self.results)


@dataclass
class _LiveWorker:
    proc: mp.process.BaseProcess
    name: str
    hb_path: str
    index: int  # preferred-slice index, reused on respawn


def _spawn(ctx, fn, jobs, index: int, generation: int, workers: int,
           steal: bool, fabric_dir: str, stop_path: str, lease_ttl: float,
           max_attempts: int, retry_errors: bool, backoff: float,
           job_timeout: float | None, poll_interval: float, chaos
           ) -> _LiveWorker:
    name = f"w{index}" if generation == 0 else f"w{index}r{generation}"
    hb_dir = os.path.join(fabric_dir, "workers")
    os.makedirs(hb_dir, exist_ok=True)
    hb_path = os.path.join(hb_dir, f"{name}.hb")
    _touch(hb_path)
    preferred = [j for k, j in enumerate(jobs) if k % workers == index]
    others = [j for k, j in enumerate(jobs) if k % workers != index]
    spec = _WorkerSpec(
        fn=fn, jobs=preferred + others if steal else preferred,
        name=name, fabric_dir=fabric_dir, hb_path=hb_path,
        stop_path=stop_path, lease_ttl=lease_ttl,
        max_attempts=max_attempts, retry_errors=retry_errors,
        backoff=backoff, job_timeout=job_timeout,
        poll_interval=poll_interval, chaos=chaos,
    )
    proc = ctx.Process(target=_worker_main, args=(spec,), daemon=True)
    proc.start()
    return _LiveWorker(proc=proc, name=name, hb_path=hb_path, index=index)


def fabric_sweep(
    fn: Callable[[Any], Any],
    params: Sequence[Any],
    *,
    fabric_dir: str | None = None,
    workers: int = 2,
    steal: bool = True,
    lease_ttl: float = 3.0,
    max_attempts: int = 3,
    retry_errors: bool = False,
    backoff: float = 0.25,
    job_timeout: float | None = None,
    run_timeout: float | None = None,
    poll_interval: float = 0.05,
    chaos: object | None = None,
    config: Any = None,
    code: str | None = None,
) -> FabricOutcome:
    """Run ``fn`` over ``params`` through the experiment fabric.

    ``workers <= 0`` runs the same claim/lease/append protocol inline in
    this process (deterministic tests, coverage tools); ``workers >= 1``
    spawns that many work-stealing processes.  Inline mode cannot kill
    a cell, so it rejects a ``job_timeout`` and a ``chaos`` schedule
    holding a ``crash`` fault (which would exit this process) with
    :class:`ValueError`.  ``config``/``code`` feed the content address
    (:func:`repro.fabric.jobs.job_key`); ``chaos`` is a
    :class:`repro.chaos.ChaosSchedule` installed in every worker.
    Without ``fabric_dir`` the sweep runs against a private temporary
    store that is deleted on return (``stats["events_path"]`` is then
    None).  Results come back as :class:`SweepResult` in parameter
    order, restored from the store wherever a previous run -- any
    previous run sharing the directory -- already recorded them.  Cell
    values must be JSON-serializable, and duplicate parameters run once.
    """
    if workers <= 0:
        if job_timeout is not None:
            raise ValueError("an inline sweep (workers <= 0) cannot "
                             "enforce job_timeout; use workers >= 1")
        if chaos is not None and any(f.kind == "crash"
                                     for f in chaos.faults):
            raise ValueError("a crash fault would exit the inline "
                             "sweep's own process; use workers >= 1")
    scratch = (
        tempfile.TemporaryDirectory(prefix="repro-fabric-",
                                    ignore_cleanup_errors=True)
        if fabric_dir is None else nullcontext(fabric_dir)
    )
    with scratch as root:
        outcome = _sweep_in(
            os.path.abspath(root), fn, params, workers, steal, lease_ttl,
            max_attempts, retry_errors, backoff, job_timeout, run_timeout,
            poll_interval, chaos, config, code,
        )
    if fabric_dir is None:
        outcome.stats["events_path"] = None  # deleted with the store
    return outcome


def _sweep_in(fabric_dir, fn, params, workers, steal, lease_ttl,
              max_attempts, retry_errors, backoff, job_timeout,
              run_timeout, poll_interval, chaos, config, code
              ) -> FabricOutcome:
    """The body of :func:`fabric_sweep` over a resolved store root."""
    os.makedirs(fabric_dir, exist_ok=True)
    store = ResultStore(fabric_dir)
    board = LeaseBoard(fabric_dir, ttl=lease_ttl,
                       max_attempts=max_attempts)
    events = FlightRecorder(os.path.join(fabric_dir, EVENTS_NAME),
                            "coordinator")
    stop_path = os.path.join(fabric_dir, "STOP")
    try:
        os.unlink(stop_path)  # a stale STOP from a previous run
    except OSError:
        pass

    jobs = make_jobs(params, config=config, code=code)
    scan = store.scan()
    pending = [j for j in jobs if j.key not in scan.records
               and board.poisoned(j.key) is None]
    events.log("run-start", jobs=len(jobs), pending=len(pending),
               restored=len(jobs) - len(pending), workers=workers)

    degraded = False
    reap_count = 0
    if pending and workers <= 0:
        spec = _WorkerSpec(
            fn=fn, jobs=jobs, name="w-inline", fabric_dir=fabric_dir,
            hb_path=os.path.join(fabric_dir, "workers", "w-inline.hb"),
            stop_path=stop_path, lease_ttl=lease_ttl,
            max_attempts=max_attempts, retry_errors=retry_errors,
            backoff=backoff, job_timeout=job_timeout,
            poll_interval=poll_interval, chaos=None,
        )
        os.makedirs(os.path.join(fabric_dir, "workers"), exist_ok=True)
        deadline = (time.monotonic() + run_timeout
                    if run_timeout is not None else None)
        with active(chaos):
            # The inline protocol cannot steal from peers, but expired
            # leases (a previous run's corpse) must still be reaped.
            reap_count += len(board.reap())
            _worker_loop(spec)
        if deadline is not None and time.monotonic() > deadline:
            degraded = True
    elif pending:
        degraded, reap_count = _supervise(
            fn, jobs, workers, steal, fabric_dir, stop_path, board,
            store, events, lease_ttl, max_attempts, retry_errors,
            backoff, job_timeout, run_timeout, poll_interval, chaos,
        )

    final = store.scan()
    results: list[SweepResult] = []
    completed = errors = poisoned = missing = 0
    for job in jobs:
        rec = final.records.get(job.key)
        if rec is not None:
            res = SweepResult(
                param=job.param,
                value=rec.get("value"),
                error=rec.get("error"),
                seconds=rec.get("seconds", 0.0),
                attempts=rec.get("attempts", 1),
            )
            if res.error is None:
                completed += 1
            else:
                errors += 1
        else:
            poison = board.poisoned(job.key)
            if poison is not None:
                poisoned += 1
                res = SweepResult(
                    param=job.param,
                    error=f"fabric: {poison.get('reason', 'poisoned')}",
                    attempts=poison.get("attempts", 0),
                )
            else:
                missing += 1
                res = SweepResult(
                    param=job.param,
                    error="fabric: cell not completed "
                          "(degraded run; re-run to continue)",
                )
        results.append(res)
    stats = {
        "jobs": len(jobs),
        "unique_keys": len({j.key for j in jobs}),
        "completed": completed,
        "errors": errors,
        "poisoned": poisoned,
        "missing": missing,
        "restored": len(jobs) - len(pending),
        "duplicates_deduped": final.duplicates,
        "reaped_leases": reap_count,
        "store_records": len(final.records),
        "events_path": os.path.join(fabric_dir, EVENTS_NAME),
    }
    events.log("run-end", **{k: v for k, v in stats.items()
                             if isinstance(v, int)}, degraded=degraded)
    return FabricOutcome(results=results, jobs=jobs, stats=stats,
                         degraded=degraded or missing > 0)


def _supervise(fn, jobs, workers, steal, fabric_dir, stop_path, board,
               store, events, lease_ttl, max_attempts, retry_errors,
               backoff, job_timeout, run_timeout, poll_interval, chaos
               ) -> tuple[bool, int]:
    """Spawn and babysit the worker fleet; returns ``(degraded,
    reaped_lease_count)``."""
    ctx = mp.get_context()
    workers = max(1, workers)

    def spawn(index: int, generation: int) -> _LiveWorker:
        return _spawn(
            ctx, fn, jobs, index, generation, workers, steal, fabric_dir,
            stop_path, lease_ttl, max_attempts, retry_errors, backoff,
            job_timeout, poll_interval, chaos,
        )

    fleet: list[_LiveWorker] = [spawn(i, 0) for i in range(workers)]
    generations = {i: 0 for i in range(workers)}
    respawn_budget = workers * 2
    hb_limit = max(job_timeout or 0.0, lease_ttl * _HB_STALE_TTLS, 2.0)
    deadline = (time.monotonic() + run_timeout
                if run_timeout is not None else None)
    degraded = False
    settled = False  # every job done or poisoned
    reap_count = 0
    try:
        while True:
            for key in board.reap():
                reap_count += 1
                events.log("reaped", key=_short(key))
            done = set(store.scan().records)
            if all(j.key in done or board.poisoned(j.key) is not None
                   for j in jobs):
                settled = True
                break
            if deadline is not None and time.monotonic() > deadline:
                events.log("run-timeout")
                degraded = True
                break
            alive: list[_LiveWorker] = []
            for w in fleet:
                if w.proc.is_alive():
                    try:
                        stale = (time.time() - os.path.getmtime(w.hb_path)
                                 > hb_limit)
                    except OSError:
                        stale = False
                    if stale:
                        events.log("worker-hung-killed", worker=w.name)
                        w.proc.terminate()
                        w.proc.join(1.0)
                        if w.proc.is_alive():
                            w.proc.kill()
                            w.proc.join()
                    else:
                        alive.append(w)
                        continue
                else:
                    w.proc.join()
                    if w.proc.exitcode == 0:
                        continue  # clean exit: its work is done
                    events.log("worker-died", worker=w.name,
                               exitcode=w.proc.exitcode)
                if respawn_budget > 0:
                    respawn_budget -= 1
                    generations[w.index] += 1
                    nw = spawn(w.index, generations[w.index])
                    events.log("worker-respawned", worker=nw.name)
                    alive.append(nw)
            fleet = alive
            if not fleet:
                # Clean exits mean the work is done (re-checked at the
                # loop top); reaching here with pending work and no
                # respawn budget is the honest-degradation path.
                done = set(store.scan().records)
                if all(j.key in done or board.poisoned(j.key) is not None
                       for j in jobs):
                    settled = True
                    break
                events.log("workers-exhausted")
                degraded = True
                break
            time.sleep(poll_interval)
    finally:
        _touch(stop_path)
        # A worker asleep in a hung cell only sees STOP between cells,
        # so after the grace it is terminated.  Cutting one that is
        # re-running a recorded cell can at most leave a torn tail in
        # its own segment, which the store tolerates.
        grace = _DONE_GRACE if settled else _DEGRADED_GRACE
        for w in fleet:
            w.proc.join(grace)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(1.0)
            if w.proc.is_alive():  # pragma: no cover - stubborn worker
                w.proc.kill()
                w.proc.join()
    return degraded, reap_count
