"""Probe worker processes for the speculative parallel binary search.

Each worker owns one complete :class:`~repro.core.encoder.
ProblemEncoding` (inherited copy-on-write under ``fork``, rebuilt from
the system blob under ``spawn``) and serves probe requests over a duplex
pipe.  A probe is solved in bounded *slices* (a fresh cooperative
:class:`~repro.robust.Budget` per slice): between slices the worker
polls its pipe for cancellations, imports peer lemmas and exports its
own short learnt clauses -- so an obsolete probe is abandoned within one
slice and clause exchange happens only at decision level 0, where
:meth:`~repro.sat.solver.Solver.import_clause` can verify and
proof-log every import.

Guard/variable alignment (clause-sharing precondition): all racers of a
group build the identical encoding and process the identical probe
sequence, so their probe guards and bound-encoding variables coincide.
A respawned worker replays the group's probe *history* (bounds only, no
solving) before serving, restoring that alignment.

Protocol (parent -> worker)::

    ("probe", probe_id, lo, hi, wall_limit)
    ("cancel", probe_id)
    ("stop",)

(worker -> parent)::

    ("ready", worker_id, encode_seconds)
    ("result", worker_id, probe_id, payload_dict)
    ("cancelled", worker_id, probe_id)
    ("error", worker_id, traceback_text)
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass, field

from repro.chaos import chaos_lits, chaos_point
from repro.parallel_solve.race import RaceConfig, apply_race_config
from repro.robust.budget import Budget, BudgetExpired

__all__ = ["WorkerSpec", "probe_worker_main"]

#: Bounded retry attempts for one clause-sharing queue operation; the
#: backoff doubles from _IPC_BACKOFF seconds per attempt.
_IPC_ATTEMPTS = 3
_IPC_BACKOFF = 0.005


@dataclass
class WorkerSpec:
    """Picklable description of one probe worker."""

    worker_id: int
    group: int
    racer: int
    #: ``system_to_dict`` blob; unused when the encoding is fork-shared.
    system_blob: dict | None = None
    config: object | None = None
    objective: object | None = None
    certify: bool = False
    share: bool = False
    share_max_len: int = 8
    #: Conflicts per solve slice (cancellation latency knob).
    slice_conflicts: int = 512
    #: Wall seconds per solve slice.
    slice_wall: float = 0.25
    #: Probes already dispatched to this group, replayed (bounds only)
    #: by a respawned worker to restore guard/variable alignment.
    history: list = field(default_factory=list)
    #: Fault injection for tests: ``os._exit`` when starting the n-th
    #: probe (1-based); None = healthy.
    die_at: int | None = None
    race_config: RaceConfig = field(default_factory=RaceConfig)
    #: :class:`repro.chaos.ChaosSchedule` installed in the worker process
    #: (cross-process execution counts live in its state_dir); None = off.
    chaos: object | None = None


class _Stop(Exception):
    """Parent asked the worker to shut down."""


def _build_encoding(spec: WorkerSpec):
    """Rebuild tasks/arch/encoding from the blob (spawn start method)."""
    from repro.core.allocator import Allocator
    from repro.io import system_from_dict

    tasks, arch = system_from_dict(spec.system_blob)
    alloc = Allocator(tasks, arch, spec.config)
    enc, cost_var, lo, hi, _secs = alloc._encode(spec.objective)
    return tasks, arch, enc, cost_var, lo


def _add_bounds(enc, cost_var, lower, lo, hi):
    """Add one probe's bound constraints under a fresh guard."""
    from repro.arith import And

    guard = enc.solver.new_guard()
    parts = []
    if lo is not None and lo > lower:
        parts.append(cost_var >= lo)
    if hi is not None:
        parts.append(cost_var <= hi)
    if parts:
        enc.solver.require(
            And(*parts) if len(parts) > 1 else parts[0], guard=guard
        )
    return guard


def probe_worker_main(conn, spec: WorkerSpec, inbox, peers, enc_pack):
    """Worker-process entry point (top-level, hence picklable).

    ``enc_pack`` is ``(tasks, arch, enc, cost_var, lower)`` when the
    parent forked us with its encoding (copy-on-write), else None and
    the worker rebuilds everything from ``spec.system_blob``.
    """
    if spec.chaos is not None:
        from repro import chaos as chaos_mod

        chaos_mod.install(spec.chaos)
    try:
        t0 = time.perf_counter()
        if enc_pack is not None:
            tasks, arch, enc, cost_var, lower = enc_pack
        else:
            tasks, arch, enc, cost_var, lower = _build_encoding(spec)
        sat = enc.solver.sat
        apply_race_config(sat, spec.race_config)
        certifier = None
        if spec.certify:
            from repro.certify import ProbeCertifier

            certifier = ProbeCertifier(tasks, arch, enc, spec.objective)
        exported: list[tuple] = []
        seen_exports: set[tuple] = set()
        if spec.share:
            max_len = spec.share_max_len

            def learn_hook(lits, bt, _exp=exported, _seen=seen_exports):
                if len(lits) <= max_len:
                    key = tuple(sorted(lits))
                    if key not in _seen:
                        _seen.add(key)
                        _exp.append(key)

            sat.learn_hook = learn_hook
        # Respawn: replay the group's probe history (bounds only) so the
        # guard / bound-variable numbering matches the surviving racers.
        for lo, hi in spec.history:
            _add_bounds(enc, cost_var, lower, lo, hi)
        conn.send(("ready", spec.worker_id, time.perf_counter() - t0))
        probes_served = 0
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            if msg[0] == "cancel":
                continue  # stale cancel for an already-finished probe
            _, probe_id, lo, hi, wall = msg
            probes_served += 1
            if spec.die_at is not None and probes_served >= spec.die_at:
                os._exit(87)  # FAULT_EXIT_CODE: injected crash
            _serve_probe(
                conn, spec, enc, cost_var, lower, certifier,
                inbox, peers, exported,
                probe_id, lo, hi, wall,
            )
    except (_Stop, EOFError, KeyboardInterrupt):
        pass
    except Exception:  # pragma: no cover - reported to the supervisor
        try:
            conn.send(("error", spec.worker_id, traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _drain_control(conn, probe_id) -> bool:
    """Handle queued control messages; True when this probe is cancelled."""
    cancelled = False
    while conn.poll():
        msg = conn.recv()
        if msg[0] == "stop":
            raise _Stop()
        if msg[0] == "cancel" and msg[1] == probe_id:
            cancelled = True
        # cancels for other (older) probes are stale: ignore.
    return cancelled


def _ipc_put(q, item) -> bool:
    """One queue export with bounded retry-with-backoff.

    A full bounded queue is *normal* (drop, sharing is best-effort); a
    transient OSError (wedged pipe, injected ``worker.ipc.put``) gets
    :data:`_IPC_ATTEMPTS` tries before the lemma is dropped -- clause
    sharing must never take the worker down.
    """
    for attempt in range(_IPC_ATTEMPTS):
        try:
            chaos_point("worker.ipc.put")
            q.put_nowait(item)
            return True
        except queue_mod.Full:
            return False
        except (OSError, ValueError):
            time.sleep(_IPC_BACKOFF * (2 ** attempt))
    return False


def _ipc_get(q) -> tuple[bool, object]:
    """One queue import with bounded retry-with-backoff; ``(False, None)``
    when the queue is empty or persistently failing."""
    for attempt in range(_IPC_ATTEMPTS):
        try:
            chaos_point("worker.ipc.get")
            return True, q.get_nowait()
        except queue_mod.Empty:
            return False, None
        except (OSError, ValueError):
            time.sleep(_IPC_BACKOFF * (2 ** attempt))
    return False, None


def _exchange(sat, spec, inbox, peers, exported) -> tuple[int, int]:
    """Flush exports to the peers, import pending peer lemmas."""
    sent = 0
    if spec.share and exported:
        for clause in exported:
            for q in peers:
                if _ipc_put(q, clause):
                    sent += 1
        del exported[:]
    got = 0
    if spec.share and inbox is not None:
        while True:
            ok, clause = _ipc_get(inbox)
            if not ok:
                break
            # Named fault site: a lemma damaged in transit (flipped or
            # dropped literal) must be *rejected by verification*, not
            # trusted -- import_clause RUP-checks every import, so a
            # damaged-but-underivable clause lands in rejected_imports.
            clause = chaos_lits("race.import", tuple(clause))
            if clause is None:
                continue  # lost in transit
            if sat.import_clause(list(clause)):
                got += 1
    return sent, got


def _serve_probe(conn, spec, enc, cost_var, lower, certifier,
                 inbox, peers, exported, probe_id, lo, hi, wall) -> None:
    sat = enc.solver.sat
    guard = _add_bounds(enc, cost_var, lower, lo, hi)
    deadline = time.monotonic() + wall if wall is not None else None
    t0 = time.perf_counter()
    c0 = enc.solver.stats.conflicts
    d0 = enc.solver.stats.decisions
    status = None
    answer = False
    del exported[:]  # bounds may have triggered learning; don't export those
    while status is None:
        # Named fault site, once per solve slice: a "crash" here dies
        # mid-probe (respawn path), an "io-error" surfaces through the
        # worker's error report, a "hang" exercises cancellation latency.
        chaos_point("solver.slice")
        if _drain_control(conn, probe_id):
            conn.send(("cancelled", spec.worker_id, probe_id))
            return
        if deadline is not None and time.monotonic() > deadline:
            status = "interrupted"
            break
        _exchange(sat, spec, inbox, peers, exported)
        c_before = enc.solver.stats.conflicts
        budget = Budget(
            wall_seconds=spec.slice_wall,
            max_conflicts=spec.slice_conflicts,
        )
        try:
            answer = enc.solver.solve(assumptions=[guard], budget=budget)
        except BudgetExpired:
            # Every slice restarts from level 0, re-propagating the
            # assumptions; on large formulas a fixed short wall can
            # expire inside that re-propagation and make no search
            # progress at all.  Grow the slice until useful work
            # dominates (trading cancellation latency for liveness);
            # the growth persists across this worker's later probes.
            if enc.solver.stats.conflicts - c_before < (
                spec.slice_conflicts // 8
            ):
                spec.slice_wall = min(spec.slice_wall * 2.0, 8.0)
            continue  # slice over: poll control, exchange, go again
        status = "sat" if answer else "unsat"
    _exchange(sat, spec, inbox, peers, exported)
    seconds = time.perf_counter() - t0
    cost = enc.solver.value(cost_var) if status == "sat" else None
    payload = {
        "status": status,
        "sat": status == "sat",
        "cost": cost,
        "alloc": None,
        "seconds": seconds,
        "conflicts": enc.solver.stats.conflicts - c0,
        "decisions": enc.solver.stats.decisions - d0,
        "imported": enc.solver.stats.snapshot()["imported_clauses"],
        "rejected": enc.solver.stats.snapshot()["rejected_imports"],
        "certificate": None,
        "proof_lines": 0,
    }
    if status == "sat":
        from repro.io import allocation_to_dict

        payload["alloc"] = allocation_to_dict(enc.decode())
    if certifier is not None:
        from repro.core.optimize import ProbeLog

        probe = ProbeLog(
            lo=lo if lo is not None else lower,
            hi=hi if hi is not None else 0,
            sat=status == "sat",
            cost=cost,
            seconds=seconds,
            conflicts=payload["conflicts"],
            decisions=payload["decisions"],
            interrupted=status == "interrupted",
        )
        certifier.on_probe(probe, guard)
        payload["certificate"] = certifier.result.probes[-1]
        payload["proof_lines"] = len(certifier.proof.steps)
    conn.send(("result", spec.worker_id, probe_id, payload))
