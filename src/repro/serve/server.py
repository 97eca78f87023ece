"""Allocation-as-a-service: the resilient long-lived solve server.

``AllocationServer`` turns the one-shot :func:`repro.core.api.solve`
entry point into a multi-tenant service.  One asyncio event loop owns
admission (:class:`~repro.serve.queue.TenantQueues`) and dispatch; a
small pool of worker tasks runs the CPU-bound solves on the server's
own threads, one per worker: memory one solve frees is reused by the
next on the same thread, rather than growing another allocator arena
on a fresh thread of a shared pool.  The robustness posture, end to
end:

- **deadline propagation** -- a request's ``deadline`` (wall seconds)
  and ``conflict_budget`` become a :class:`repro.robust.Budget` threaded
  through the whole stack; expiry surfaces as a typed
  ``deadline_exceeded`` response, never a hang and never a silent
  partial answer (a usable anytime bound is served as ``ok`` with the
  honest ``upper_bound`` status).
- **admission control** -- bounded per-tenant queues with weighted-fair
  dequeue; a full queue sheds with ``overloaded`` + ``retry_after``,
  an oversized system is rejected at the door.
- **graceful degradation** -- a :class:`~repro.serve.breaker.
  BackendBreaker` trips the process to the pure propagation core after
  consecutive compiled-core faults and probes its way back.
- **resource governance** -- ``disk_quota``/``mem_watermark`` arm a
  process-wide :class:`repro.governor.Governor`: state files stay
  under quota (quarantined checkpoints evicted first, flight recorder
  rotated, proof spools condemned typed rather than truncated), and
  memory pressure degrades gradually -- learnt-DB reduction, warm-cache
  shrink, ``overloaded`` shedding, cooperative budget cancellation
  (see docs/GOVERNOR.md).  The TCP front end bounds frame length
  (``max_frame_bytes``) and read stalls (``read_timeout``) with typed
  ``error`` responses, so a hostile or broken client cannot pin a
  worker or crash a connection handler.
- **drain, don't drop** -- SIGTERM (or :meth:`drain`) stops admission,
  cancels in-flight budgets cooperatively (the per-probe checkpoints in
  ``state_dir/checkpoints/`` survive), answers every queued request
  with ``draining``, and lets workers finish.  A restarted server given
  the same ``state_dir`` resumes interrupted searches from their
  checkpoints on resubmission.
- **bounds composition** -- proven optima (and their allocations) land
  in a :class:`~repro.serve.cache.WarmCache`; a later request in the
  same scenario gets the cached entry as a ``HintBoundsProvider`` and,
  unless ``ServeConfig.bounds`` is ``"off"``, the relaxation sidecar
  (:class:`repro.bounds.RelaxationBoundsProvider`) as a second
  provider.  The allocator audits every proposal and the tightest
  audited bound wins (identical certified answer, fewer probes).
- **encode once per scenario** -- every solve encodes in parameter
  mode, and the cache entry keeps the scenario's encoding template; a
  later request whose system has the template's shape (WCETs changed
  within their bit widths) replays it instead of encoding
  (:mod:`repro.core.template`).

Every lifecycle event is appended to ``state_dir/serve-events.jsonl``
(:class:`repro.robust.FlightRecorder`), and the ``serve.*`` chaos sites
let the torture suite inject faults at every seam.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import governor as governor_mod
from repro.chaos import chaos_point, install, uninstall
from repro.governor import Governor, GovernorConfig
from repro.robust.budget import Budget
from repro.robust.flight import FlightRecorder
from repro.robust.records import quarantine
from repro.serve.breaker import BackendBreaker
from repro.serve.cache import WarmCache
from repro.serve.queue import TenantQueues
from repro.serve.responses import ServeResponse

__all__ = ["ServeConfig", "ServeJob", "AllocationServer", "system_digest"]


def system_digest(tasks, arch) -> str:
    """Content digest of a system (tasks + architecture), for checkpoint
    keying."""
    from repro.io.json_codec import system_to_dict

    blob = json.dumps(
        system_to_dict(tasks, arch), sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ServeConfig:
    """Operator-side knobs of one :class:`AllocationServer`."""

    #: Durable state: checkpoints, flight recorder, chaos counters.
    state_dir: str
    workers: int = 2
    queue_depth: int = 8
    tenant_weights: dict = field(default_factory=dict)
    #: Deadline applied when a request names none (None = unlimited).
    default_deadline: float | None = None
    #: Reject systems with more tasks than this at admission.
    max_tasks: int | None = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    cache_size: int = 64
    #: Certify answers even when the request does not ask for it.
    certify_default: bool = False
    #: Bounds providers composed into every solve: ``"auto"`` adds the
    #: relaxation sidecar next to the warm-cache hint (tightest audited
    #: bound wins), ``"off"`` serves warm-cache hints only.
    bounds: str = "auto"
    #: Chaos schedule installed process-wide for the server's lifetime.
    chaos: object | None = None
    #: Disk quota (bytes) over the server's state files -- checkpoints
    #: and the flight recorder; ``None`` = unlimited.  Enforced by a
    #: process-wide :class:`repro.governor.Governor` (docs/GOVERNOR.md).
    disk_quota: int | None = None
    #: Memory watermark (bytes): solver arenas + warm cache + queue
    #: backlog, with graduated responses (reduce/shrink/shed/cancel).
    mem_watermark: int | None = None
    #: Largest accepted JSON-lines frame on the TCP front end; an
    #: oversized frame gets a typed ``error`` response, never a raise.
    max_frame_bytes: int = 1 << 20
    #: Seconds a TCP connection may stall mid-read before it is closed,
    #: so a slow client cannot pin a connection handler (None = forever).
    read_timeout: float | None = None


@dataclass
class ServeJob:
    """One admitted request on its way through the queue."""

    id: str
    tenant: str
    scenario: str
    tasks: object
    arch: object
    digest: str
    #: Identity request: objective/config/certify only -- no budget, so
    #: the fingerprint is stable across deadlines (cache + checkpoint key).
    base_request: object
    identity_fp: str
    deadline_at: float | None
    conflict_budget: int | None
    certify: bool
    want_allocation: bool
    future: asyncio.Future
    submitted: float


#: Rough in-memory footprint assumed per queued (undispatched) job when
#: the governor computes memory pressure: parsed system + request + the
#: wire payload's transient copies.
_QUEUED_JOB_BYTES = 64 * 1024


class AllocationServer:
    """Long-lived multi-tenant front end over ``repro.core.api.solve``."""

    def __init__(self, config: ServeConfig):
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        self.checkpoint_dir = os.path.join(config.state_dir, "checkpoints")
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.events_path = os.path.join(config.state_dir, "serve-events.jsonl")
        self.recorder = FlightRecorder(self.events_path, actor="serve")
        self.queues = TenantQueues(
            depth=config.queue_depth, weights=config.tenant_weights
        )
        self.cache = WarmCache(size=config.cache_size)
        self.breaker = BackendBreaker(
            threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
            on_event=self.recorder.log,
        )
        self._seq = itertools.count(1)
        self._cond: asyncio.Condition | None = None
        self._workers: list[asyncio.Task] = []
        #: The solve threads, one per worker (created by :meth:`start`).
        self._threads: ThreadPoolExecutor | None = None
        self._inflight: dict[str, Budget] = {}
        self._draining = False
        self._started = False
        self._recent_seconds: deque[float] = deque(maxlen=32)
        self._tcp: asyncio.AbstractServer | None = None
        self.governor: Governor | None = None
        gc = GovernorConfig(
            disk_quota=config.disk_quota,
            mem_watermark=config.mem_watermark,
        )
        if gc.enabled:
            self.governor = Governor(gc, recorder=self.recorder.log)
            self.governor.track("flight", self.events_path)
            self.governor.add_memory_source(
                "warm-cache", self.cache.memory_bytes
            )
            self.governor.add_memory_source(
                "serve-queue",
                lambda: len(self.queues) * _QUEUED_JOB_BYTES,
            )
            self.governor.add_shrinker("warm-cache", self.cache.shrink)
        self.stats = {
            "received": 0, "served": 0, "shed": 0,
            "deadline_exceeded": 0, "errors": 0, "drained": 0,
        }

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.config.chaos is not None:
            install(self.config.chaos)
        if self.governor is not None:
            governor_mod.install(self.governor)
        self._cond = asyncio.Condition()
        self._threads = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="serve-solve",
        )
        for i in range(max(1, self.config.workers)):
            self._workers.append(
                asyncio.create_task(self._worker(i), name=f"serve-worker-{i}")
            )
        self.recorder.log(
            "server.start",
            workers=len(self._workers),
            queue_depth=self.config.queue_depth,
            state_dir=self.config.state_dir,
        )

    async def start_tcp(self, host: str, port: int) -> tuple[str, int]:
        """Expose the JSON-lines protocol on a TCP socket."""
        self._tcp = await asyncio.start_server(
            self._handle_conn, host, port,
            # Stream limit = frame bound: an overlong line surfaces as
            # ValueError from readline(), answered as a typed error.
            limit=max(1024, self.config.max_frame_bytes),
        )
        sock = self._tcp.sockets[0].getsockname()
        self.recorder.log("server.listen", host=sock[0], port=sock[1])
        return sock[0], sock[1]

    async def drain(self) -> None:
        """Stop admission, interrupt in-flight solves cooperatively,
        answer everything queued, and wait for the workers.

        In-flight binary searches keep their per-probe checkpoints in
        ``state_dir/checkpoints/``; resubmitting the same request to a
        restarted server resumes them (asserted by the torture suite).
        """
        if not self._started or self._cond is None:
            return
        async with self._cond:
            if self._draining:
                return
            self._draining = True
            self._cond.notify_all()
        inflight = list(self._inflight.items())
        self.recorder.log(
            "drain.start",
            inflight=[rid for rid, _ in inflight],
            queued=len(self.queues),
        )
        try:
            chaos_point("serve.drain")
        except OSError as exc:
            # A fault during drain must never wedge shutdown: record it
            # and keep going -- the budgets below still get cancelled.
            self.recorder.log("drain.fault", error=str(exc))
        for _rid, budget in inflight:
            budget.expired_reason = "server draining"
        retry = self._retry_after()
        for job in self.queues.flush():
            self.stats["drained"] += 1
            self._finish(
                job,
                ServeResponse(
                    id=job.id, kind="draining", retry_after=retry,
                    detail="server draining; request was not started",
                ),
            )
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        self._threads.shutdown(wait=False)
        self.recorder.log(
            "drain.end", checkpointed=[rid for rid, _ in inflight]
        )

    async def stop(self) -> None:
        """Drain, close the TCP front end, release the chaos schedule."""
        await self.drain()
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        if self.governor is not None:
            governor_mod.uninstall(self.governor)
        if self.config.chaos is not None:
            uninstall(self.config.chaos)
        # Encoding templates never outlive their server.
        self.cache.drop_templates()
        self.recorder.log("server.stop", stats=dict(self.stats))

    # -- admission ------------------------------------------------------

    async def submit(self, payload: dict) -> ServeResponse:
        """Admit one request; resolves to its single terminal response.

        Never raises for request-side problems: malformed payloads,
        injected accept faults, overload and drain all come back as
        typed responses.
        """
        if not self._started or self._cond is None:
            raise RuntimeError("server not started")
        rid = str(payload.get("id") or f"req-{next(self._seq)}")
        self.stats["received"] += 1
        try:
            chaos_point("serve.accept")
        except OSError as exc:
            self.stats["errors"] += 1
            return ServeResponse(
                id=rid, kind="error", detail=f"accept fault: {exc}"
            )
        if self._draining:
            return ServeResponse(
                id=rid, kind="draining", retry_after=self._retry_after(),
                detail="server draining; request was not accepted",
            )
        # One watermark evaluation per admission: runs the shrink/cancel
        # responses as a side effect and sheds at "shed" or above.
        if (self.governor is not None
                and self.governor.mem_tick() in ("shed", "cancel")):
            self.stats["shed"] += 1
            self.recorder.log(
                "request.shed", id=rid, reason="mem-pressure"
            )
            return ServeResponse(
                id=rid, kind="overloaded", retry_after=self._retry_after(),
                detail="memory watermark exceeded; shedding new requests",
            )
        try:
            job = self._admit(rid, payload)
        except (KeyError, ValueError, TypeError) as exc:
            self.stats["errors"] += 1
            return ServeResponse(
                id=rid, kind="error", detail=f"bad request: {exc}"
            )
        if self.config.max_tasks is not None and (
            len(job.tasks.tasks) > self.config.max_tasks
        ):
            self.stats["shed"] += 1
            self.recorder.log("request.shed", id=rid, reason="oversized")
            return ServeResponse(
                id=rid, kind="overloaded",
                retry_after=None,
                detail=(
                    f"system has {len(job.tasks.tasks)} tasks; this "
                    f"server admits at most {self.config.max_tasks}"
                ),
            )
        async with self._cond:
            try:
                admitted = self.queues.offer(job.tenant, job)
            except OSError as exc:
                self.stats["errors"] += 1
                return ServeResponse(
                    id=rid, kind="error", detail=f"queue fault: {exc}"
                )
            if admitted:
                self._cond.notify()
        if not admitted:
            self.stats["shed"] += 1
            self.recorder.log(
                "request.shed", id=rid, tenant=job.tenant, reason="queue full"
            )
            return ServeResponse(
                id=rid, kind="overloaded", retry_after=self._retry_after(),
                detail=f"tenant {job.tenant!r} queue is full",
            )
        self.recorder.log(
            "request.accepted", id=rid, tenant=job.tenant,
            scenario=job.scenario, backlog=len(self.queues),
        )
        return await job.future

    def _admit(self, rid: str, payload: dict) -> ServeJob:
        """Parse a wire payload into a queued job (raises on bad input)."""
        from repro.core.api import SolveRequest
        from repro.core.objectives import objective_from_spec
        from repro.io.json_codec import system_from_dict

        tasks, arch = system_from_dict(payload["system"])
        objective = objective_from_spec(
            str(payload.get("objective") or "sum_resp")
        )
        certify = bool(payload.get("certify", self.config.certify_default))
        deadline = payload.get("deadline", self.config.default_deadline)
        if deadline is not None:
            deadline = float(deadline)
            if deadline <= 0:
                raise ValueError("deadline must be positive seconds")
        conflicts = payload.get("conflict_budget")
        if conflicts is not None:
            conflicts = int(conflicts)
        # Serving is exact-or-typed: no heuristic tail, so an expired
        # budget with nothing usable surfaces as deadline_exceeded fast
        # instead of burning drain time in fallback heuristics.
        base = SolveRequest(
            objective=objective, certify=certify, heuristics=()
        )
        return ServeJob(
            id=rid,
            tenant=str(payload.get("tenant") or "default"),
            scenario=str(payload.get("scenario") or tasks.name or "default"),
            tasks=tasks,
            arch=arch,
            digest=system_digest(tasks, arch),
            base_request=base,
            identity_fp=base.fingerprint(),
            deadline_at=(
                None if deadline is None else time.monotonic() + deadline
            ),
            conflict_budget=conflicts,
            certify=certify,
            want_allocation=bool(payload.get("return_allocation", False)),
            future=asyncio.get_running_loop().create_future(),
            submitted=time.monotonic(),
        )

    def _finish(self, job: ServeJob, resp: ServeResponse) -> None:
        if not job.future.done():
            job.future.set_result(resp)
        self.recorder.log(
            "request.done", id=job.id, kind=resp.kind, status=resp.status,
            cost=resp.cost, proven=resp.proven, warm=resp.warm,
            resumed=resp.resumed, seconds=round(resp.seconds, 4),
        )

    def _retry_after(self) -> float:
        """Back-of-envelope hint: backlog drained at the recent rate."""
        if self._recent_seconds:
            per = sum(self._recent_seconds) / len(self._recent_seconds)
        else:
            per = 0.5
        backlog = len(self.queues) + len(self._inflight)
        return round(
            max(0.1, per * max(1, backlog) / max(1, self.config.workers)), 3
        )

    # -- dispatch -------------------------------------------------------

    async def _worker(self, idx: int) -> None:
        assert self._cond is not None
        while True:
            job = await self._next_job()
            if job is None:
                return
            loop = asyncio.get_running_loop()
            resp = await loop.run_in_executor(self._threads,
                                              self._probe_and_solve, job)
            done_budget = self._inflight.pop(job.id, None)
            if done_budget is not None and self.governor is not None:
                self.governor.unregister_budget(done_budget)
            self._recent_seconds.append(resp.seconds)
            if resp.kind == "ok":
                self.stats["served"] += 1
            elif resp.kind == "deadline_exceeded":
                self.stats["deadline_exceeded"] += 1
            elif resp.kind == "overloaded":
                self.stats["shed"] += 1
            elif resp.kind == "error":
                self.stats["errors"] += 1
            self._finish(job, resp)

    async def _next_job(self) -> ServeJob | None:
        assert self._cond is not None
        while True:
            async with self._cond:
                while True:
                    try:
                        job = self.queues.take()
                    except OSError:
                        # Injected dequeue fault: the queue is intact,
                        # retry outside the lock after a beat.
                        job = None
                        break
                    if job is not None:
                        return job
                    if self._draining:
                        return None
                    await self._cond.wait()
            if self._draining and len(self.queues) == 0:
                return None
            await asyncio.sleep(0.02)

    # -- the solve itself (worker thread) -------------------------------

    def _probe_and_solve(self, job: ServeJob) -> ServeResponse:
        """The breaker's half-open probe, then the solve, as one pool
        call.  Two calls would let the second be submitted before the
        thread that ran the first counts as idle again; the pool then
        starts its next thread, and a solve on a fresh thread regrows
        that thread's malloc arena (10-20 MB on the served shapes)."""
        self.breaker.maybe_probe()
        return self._solve_job(job)

    def _solve_job(self, job: ServeJob) -> ServeResponse:
        t0 = time.monotonic()
        try:
            return self._solve_job_inner(job, t0)
        except Exception as exc:  # noqa: BLE001 - serving boundary
            return ServeResponse(
                id=job.id, kind="error",
                detail=f"{type(exc).__name__}: {exc}",
                seconds=time.monotonic() - t0,
            )

    def _solve_job_inner(self, job: ServeJob, t0: float) -> ServeResponse:
        from repro.core.api import ExitCode, solve
        from repro.core.optimize import CheckpointMismatch
        from repro.io.json_codec import allocation_to_dict
        from repro.sat.core import get_backend

        try:
            chaos_point("serve.worker")
        except OSError as exc:
            # Server-side fault, not a solver-core fault: typed error,
            # no breaker accounting.
            return ServeResponse(
                id=job.id, kind="error", detail=f"worker fault: {exc}",
                seconds=time.monotonic() - t0,
            )
        remaining = None
        if job.deadline_at is not None:
            remaining = job.deadline_at - time.monotonic()
            if remaining <= 0:
                return ServeResponse(
                    id=job.id, kind="deadline_exceeded",
                    detail="deadline expired while queued",
                    seconds=time.monotonic() - t0,
                )
        budget = Budget(
            wall_seconds=remaining, max_conflicts=job.conflict_budget
        )
        self._inflight[job.id] = budget
        if self._draining:
            # Drain may have snapshotted _inflight before we registered.
            budget.expired_reason = "server draining"
        if self.governor is not None:
            # Cooperative-cancel target while in flight: the governor's
            # "cancel" level sets expired_reason like a drain does.
            self.governor.register_budget(budget)

        from repro.bounds import HintBoundsProvider, RelaxationBoundsProvider

        entry = self.cache.lookup(job.scenario, job.identity_fp)
        hint = entry.optimum if entry is not None else None
        witness = entry.allocation if entry is not None else None
        providers: list = []
        if entry is not None:
            providers.append(HintBoundsProvider(
                upper=hint, witness=witness, name="warm-cache",
            ))
        if self.config.bounds != "off":
            # On a hit the audited warm witness is already the upper
            # bound, so neither greedy nor the annealing walk adds
            # anything: the relaxation floor alone, which with the
            # witness fences the search to one probe.
            providers.append(
                RelaxationBoundsProvider() if entry is None
                else RelaxationBoundsProvider(heuristic_upper=False)
            )
        from repro.fabric.jobs import code_fingerprint

        # Keyed by system + identity options + code: a checkpoint
        # recorded by different solver code is never resumed.
        key = hashlib.sha256(
            f"{job.digest}|{job.identity_fp}|{code_fingerprint()}".encode()
        ).hexdigest()[:24]
        ckpt = os.path.join(self.checkpoint_dir, f"{key}.json")
        from repro.core.template import TemplateSlot

        # The scenario's encoding template: replayed when the system has
        # its shape; the slot returns the one that fits this system.
        slot = TemplateSlot(entry.template if entry is not None else None)
        request = job.base_request.merged(
            budget=budget,
            checkpoint=ckpt,
            bounds=tuple(providers),
            flight_log=self.events_path,
            template=slot,
        )
        backend = get_backend().name
        try:
            report = solve(job.tasks, job.arch, request)
        except CheckpointMismatch as exc:
            # The stored checkpoint, not the solver core, is at fault:
            # set it aside so a resubmission starts afresh, and leave
            # the breaker alone.
            moved = quarantine(ckpt)
            where = f"quarantined to {moved}" if moved else "not quarantined"
            return ServeResponse(
                id=job.id, kind="error",
                detail=f"checkpoint {where}: {exc}",
                seconds=time.monotonic() - t0,
            )
        except Exception as exc:  # noqa: BLE001 - serving boundary
            reason = f"{type(exc).__name__}: {exc}"
            self.breaker.record_failure(reason, backend=backend)
            return ServeResponse(
                id=job.id, kind="error", detail=reason,
                seconds=time.monotonic() - t0,
            )
        failed = [s for s in report.stages if s.status == "failed"]
        if failed:
            self.breaker.record_failure(
                f"stage {failed[0].stage} failed", backend=backend
            )
        else:
            self.breaker.record_success()
        return self._classify(job, budget, report, t0, hint, ExitCode,
                              allocation_to_dict, slot.template)

    def _classify(self, job, budget, report, t0, hint, ExitCode,
                  allocation_to_dict, template) -> ServeResponse:
        seconds = time.monotonic() - t0
        warm = hint is not None
        resumed = self._resumed(report)
        certified = None
        if report.certificate is not None:
            certified = bool(report.certificate.all_verified)
        if report.exit_code == ExitCode.CERTIFICATE_FAILED:
            return ServeResponse(
                id=job.id, kind="certificate_failed", status=report.status,
                cost=report.cost, proven=False, certified=False,
                warm=warm, resumed=resumed, seconds=seconds,
                detail="certificate audit failed; answer withheld",
            )
        if report.status == "infeasible":
            return ServeResponse(
                id=job.id, kind="infeasible", status="infeasible",
                proven=True, certified=certified, resumed=resumed,
                seconds=seconds,
            )
        if report.status == "unknown":
            reason = budget.expired_reason or self._interrupt_reason(report)
            if budget.expired_reason == "server draining":
                return ServeResponse(
                    id=job.id, kind="draining",
                    retry_after=self._retry_after(), seconds=seconds,
                    detail=(
                        "interrupted by drain; search checkpointed -- "
                        "resubmit to the restarted server to resume"
                    ),
                )
            if budget.expired_reason == "memory watermark exceeded":
                # Governor "cancel" response: typed shed, checkpointed
                # like a drain -- resubmission resumes the search.
                return ServeResponse(
                    id=job.id, kind="overloaded",
                    retry_after=self._retry_after(), seconds=seconds,
                    detail=(
                        "solve cancelled by memory watermark; search "
                        "checkpointed -- resubmit when pressure clears"
                    ),
                )
            if job.deadline_at is not None or job.conflict_budget is not None:
                return ServeResponse(
                    id=job.id, kind="deadline_exceeded", seconds=seconds,
                    detail=reason or "budget exhausted before an answer",
                )
            return ServeResponse(
                id=job.id, kind="error", seconds=seconds,
                detail=reason or "solve produced no usable answer",
            )
        # A usable answer: serve it with its honest status -- including
        # an anytime upper_bound cut short by deadline or drain.
        if (
            report.status == "optimal"
            and report.proven
            and report.cost is not None
        ):
            self.cache.store(
                job.scenario, job.identity_fp, report.cost,
                {
                    "cost": report.cost,
                    "proven": report.proven,
                    "status": report.status,
                },
                allocation=(
                    allocation_to_dict(report.allocation)
                    if report.allocation is not None else None
                ),
                template=template,
            )
        alloc = None
        if job.want_allocation and report.allocation is not None:
            alloc = allocation_to_dict(report.allocation)
        certified = None
        if report.certificate is not None:
            certified = bool(report.certificate.all_verified)
        return ServeResponse(
            id=job.id, kind="ok", status=report.status, cost=report.cost,
            proven=report.proven, certified=certified, warm=warm,
            resumed=resumed, seconds=seconds, allocation=alloc,
        )

    @staticmethod
    def _resumed(report) -> bool:
        res = report.result
        inner = getattr(res, "result", None) or res
        outcome = getattr(inner, "outcome", None)
        return bool(getattr(outcome, "resumed", False))

    @staticmethod
    def _interrupt_reason(report) -> str | None:
        res = report.result
        inner = getattr(res, "result", None) or res
        outcome = getattr(inner, "outcome", None)
        reason = getattr(outcome, "interrupt_reason", None)
        if reason:
            return reason
        stages = getattr(report, "stages", None) or []
        for st in stages:
            if st.detail:
                return f"stage {st.stage}: {st.detail.splitlines()[-1]}"
        return None

    # -- TCP JSON-lines front end ---------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        wlock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def send(resp: ServeResponse) -> None:
            data = (json.dumps(resp.to_dict()) + "\n").encode()
            try:
                async with wlock:
                    writer.write(data)
                    await writer.drain()
            except OSError:
                pass  # client went away mid-answer; nothing to do

        async def answer(line: bytes) -> None:
            if len(line) > self.config.max_frame_bytes:
                resp = ServeResponse(
                    id="", kind="error",
                    detail=(
                        f"frame of {len(line)} bytes exceeds the "
                        f"{self.config.max_frame_bytes}-byte limit"
                    ),
                )
                await send(resp)
                return
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError("payload must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                resp = ServeResponse(
                    id="", kind="error", detail=f"bad request line: {exc}"
                )
            else:
                resp = await self.submit(payload)
            await send(resp)

        try:
            while True:
                try:
                    if self.config.read_timeout is not None:
                        line = await asyncio.wait_for(
                            reader.readline(),
                            timeout=self.config.read_timeout,
                        )
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    # Slow-client guard: a stalled socket must not pin
                    # this handler (or, transitively, queue slots).
                    self.recorder.log(
                        "conn.timeout", timeout=self.config.read_timeout
                    )
                    await send(ServeResponse(
                        id="", kind="error",
                        detail=(
                            f"no complete frame within "
                            f"{self.config.read_timeout}s; closing "
                            f"stalled connection"
                        ),
                    ))
                    break
                except ValueError:
                    # readline() overran the stream limit: the frame is
                    # oversized and the stream can no longer be framed
                    # reliably, so answer typed and close.
                    self.recorder.log(
                        "conn.oversized",
                        limit=self.config.max_frame_bytes,
                    )
                    await send(ServeResponse(
                        id="", kind="error",
                        detail=(
                            f"frame exceeds the "
                            f"{self.config.max_frame_bytes}-byte limit; "
                            f"closing connection"
                        ),
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(answer(line))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    def status(self) -> dict:
        return {
            "draining": self._draining,
            "backlog": len(self.queues),
            "inflight": sorted(self._inflight),
            "stats": dict(self.stats),
            "cache": self.cache.stats(),
            "breaker": self.breaker.status(),
            "governor": (
                self.governor.stats_dict()
                if self.governor is not None else None
            ),
        }
