"""A JSONL flight recorder for long-lived solve components.

An append-only ``*.jsonl`` event log written with one ``write`` call
per record, so concurrent writers (threads, worker processes)
interleave whole lines and a crash never leaves a half-parsable file
worse than a torn last line.  The supervisor's stage transitions, the
allocation server's request lifecycle and the fabric's worker and
coordinator events (``fabric-events.jsonl``) all land in this kind of
log, which CI uploads.

A recorder must *never* take its host down: every filesystem failure is
swallowed (the events are observability, not state).  That includes
resource exhaustion -- ``flight.append`` is a named chaos data site
(torn/corrupt/ENOSPC bytes degrade to a torn last line at worst), and
each append is charged to the resource governor's ``flight`` category,
whose quota reclaim *rotates* the log (truncate to a marker) rather
than failing the run.  :func:`read_events` is the one torn-tolerant
reader of these logs (and of the chaos harness's own event log).
"""

from __future__ import annotations

import json
import os
import time

from repro import governor as _governor
from repro.chaos import ChaosDiskFull, chaos_data

__all__ = ["FlightRecorder", "read_events"]


class FlightRecorder:
    """Append-only JSONL event log (one object per line, crash-tolerant).

    ``actor`` tags every record (e.g. ``supervisor`` or ``serve``), so
    several components can share one log file and still be told apart.
    """

    def __init__(self, path: str, actor: str = "repro"):
        self.path = path
        self.actor = actor

    def log(self, event: str, **extra) -> None:
        record = {
            "ts": round(time.time(), 4),
            "actor": self.actor,
            "pid": os.getpid(),
            "event": event,
        }
        record.update(extra)
        try:
            line = json.dumps(record, default=str) + "\n"
        except (TypeError, ValueError):  # unserializable extra: degrade
            record = {"ts": record["ts"], "actor": self.actor,
                      "pid": record["pid"], "event": event}
            line = json.dumps(record) + "\n"
        blob = line.encode("utf-8")
        try:
            _governor.charge("flight", len(blob), path=self.path)
            data, _damage = chaos_data("flight.append", blob)
        except ChaosDiskFull as exc:
            data = exc.partial  # the prefix that reached the disk
        except OSError:
            return  # quota rejection / io-error: drop the event
        if not data:
            return
        try:
            with open(self.path, "ab") as fh:
                fh.write(data)
        except OSError:
            pass  # observability must never take the run down


def read_events(path: str) -> list[dict]:
    """Parse a flight-recorder log; damaged/torn lines are skipped (a
    crash mid-append tears at most the last line)."""
    out: list[dict] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue
                if isinstance(rec, dict):
                    out.append(rec)
    except OSError:
        return []
    return out
