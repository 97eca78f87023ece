"""Expiring job leases, attempt accounting, and poison quarantine.

A worker may only run a job while it holds that job's **lease** -- a
small JSON file under ``leases/`` whose creation with
``O_CREAT | O_EXCL`` is the atomic claim (POSIX guarantees exactly one
winner; there is no coordinator bottleneck to lose).  The lease carries
an expiry deadline; the worker's heartbeat renews it while the cell
runs, and the **reaper** (run by the coordinator, and by idle workers
-- it is idempotent) deletes leases past their deadline so a SIGKILLed
or wedged worker's job returns to the queue and a peer steals it.

Two honesty mechanisms ride on top:

- **attempt accounting**: every successful claim appends one byte to
  ``attempts/<key>.count`` (the chaos harness's crash-proof counter
  idiom -- correct across processes and kill/resume); a job claimed
  more than ``max_attempts`` times without ever producing a result is
  **poisoned**: quarantined under ``poison/<key>.json`` and recorded as
  an honest failure, so one crash-looping cell degrades the sweep to a
  partial report instead of hanging it;
- **backoff**: a failed attempt stamps the counter file's mtime, and
  the job is not claimable again before an exponential backoff expires.

The double-execution race is *allowed* by design: a reaped-but-alive
worker may finish its cell after a peer re-claimed it.  Both append a
result; the store's dedupe-on-key keeps exactly one record.  Leases
guarantee progress and bounded duplication, the store guarantees
uniqueness.

Chaos sites: ``fabric.worker.claim`` fires at the top of every claim,
``fabric.lease.renew`` at the top of every renewal (both run in worker
processes, so the ``crash`` kind is the SIGKILL drill).
"""

from __future__ import annotations

import json
import os
import time

from repro.chaos import chaos_point


def _replace_json(path: str, payload: dict) -> None:
    """Write ``payload`` to ``path`` by rename, so a reader never sees a
    half-written file; the temp file goes again on failure."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(payload))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

__all__ = ["LeaseBoard"]


class LeaseBoard:
    """Lease, attempt, and poison state for one fabric directory."""

    def __init__(self, root: str, ttl: float = 3.0,
                 max_attempts: int = 3):
        self.root = os.path.abspath(root)
        self.ttl = float(ttl)
        self.max_attempts = int(max_attempts)
        self.lease_dir = os.path.join(self.root, "leases")
        self.attempts_dir = os.path.join(self.root, "attempts")
        self.poison_dir = os.path.join(self.root, "poison")
        for d in (self.lease_dir, self.attempts_dir, self.poison_dir):
            os.makedirs(d, exist_ok=True)

    # -- leases ---------------------------------------------------------

    def _lease_path(self, key: str) -> str:
        return os.path.join(self.lease_dir, f"{key}.lease")

    def claim(self, key: str, worker: str) -> bool:
        """Atomically claim ``key`` for ``worker``.  False when someone
        else holds a lease.  May raise :class:`OSError` (an injected or
        real filesystem failure) -- the caller treats that as a failed
        claim and moves on."""
        chaos_point("fabric.worker.claim")
        path = self._lease_path(key)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        payload = json.dumps({
            "key": key,
            "worker": worker,
            "acquired": time.time(),
            "expires": time.time() + self.ttl,
        })
        try:
            os.write(fd, payload.encode())
        finally:
            os.close(fd)
        return True

    def renew(self, key: str, worker: str) -> bool:
        """Extend the lease deadline (the heartbeat).  False when the
        lease is gone or owned by someone else -- the worker was reaped
        and must treat the job as stolen.  May raise :class:`OSError`
        (one missed beat; the next beat retries)."""
        chaos_point("fabric.lease.renew")
        holder = self.holder(key)
        if holder is None or holder.get("worker") != worker:
            return False
        _replace_json(self._lease_path(key),
                      dict(holder, expires=time.time() + self.ttl))
        return True

    def release(self, key: str, worker: str) -> None:
        """Drop the lease if ``worker`` still owns it (never raises)."""
        holder = self.holder(key)
        if holder is not None and holder.get("worker") != worker:
            return  # stolen while we worked: not ours to release
        try:
            os.unlink(self._lease_path(key))
        except OSError:
            pass

    def holder(self, key: str) -> dict | None:
        """The lease record for ``key``, or None.  An unparseable lease
        (a claim crashed between create and write) reads as held-by-
        nobody with an mtime; the reaper ages it out."""
        try:
            with open(self._lease_path(key)) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    def held(self, key: str, now: float | None = None) -> bool:
        """Whether a live (unexpired) lease exists for ``key``."""
        now = time.time() if now is None else now
        holder = self.holder(key)
        if holder is None:
            return os.path.exists(self._lease_path(key))
        return holder.get("expires", 0) > now

    def reap(self, now: float | None = None) -> list[str]:
        """Delete expired leases; returns the re-queued job keys.

        A lease past its deadline -- or unparseable and older than one
        TTL (a claim that died mid-write) -- is removed, returning its
        job to the claimable pool.  Idempotent and safe to run from any
        process: a concurrent unlink just means someone else reaped
        first.
        """
        now = time.time() if now is None else now
        reaped: list[str] = []
        try:
            names = os.listdir(self.lease_dir)
        except OSError:
            return reaped
        for name in names:
            if not name.endswith(".lease"):
                continue
            key = name[:-len(".lease")]
            path = os.path.join(self.lease_dir, name)
            holder = self.holder(key)
            if holder is None:
                try:
                    stale = os.path.getmtime(path) + self.ttl < now
                except OSError:
                    continue  # already gone
                if not stale:
                    continue
            elif holder.get("expires", 0) > now:
                continue
            try:
                os.unlink(path)
                reaped.append(key)
            except OSError:
                pass  # raced another reaper
        return reaped

    # -- attempt accounting ---------------------------------------------

    def _attempts_path(self, key: str) -> str:
        return os.path.join(self.attempts_dir, f"{key}.count")

    def bump_attempts(self, key: str) -> int:
        """Record one claim of ``key``; returns the attempt number
        (1-based, counted across all processes and runs)."""
        with open(self._attempts_path(key), "ab") as fh:
            fh.write(b".")
            fh.flush()
            return fh.tell()

    def attempts(self, key: str) -> int:
        try:
            return os.path.getsize(self._attempts_path(key))
        except OSError:
            return 0

    def claimable_at(self, key: str, backoff: float) -> float:
        """Earliest wall-clock time ``key`` may be claimed again
        (exponential backoff from the last attempt's stamp)."""
        n = self.attempts(key)
        if n == 0 or backoff <= 0:
            return 0.0
        try:
            last = os.path.getmtime(self._attempts_path(key))
        except OSError:
            return 0.0
        return last + backoff * (2 ** (n - 1))

    # -- poison quarantine ----------------------------------------------

    def _poison_path(self, key: str) -> str:
        return os.path.join(self.poison_dir, f"{key}.json")

    def poison(self, key: str, reason: str) -> None:
        """Quarantine ``key``: no worker will claim it again."""
        try:
            _replace_json(self._poison_path(key), {
                "key": key,
                "reason": reason,
                "attempts": self.attempts(key),
                "time": time.time(),
            })
        except OSError:
            pass  # quarantine is advisory; attempts still gate claims

    def poisoned(self, key: str) -> dict | None:
        try:
            with open(self._poison_path(key)) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None
