"""Checkpoint/resume state for binary searches.

:class:`SearchCheckpoint` serializes to plain JSON so an interrupted run
can be inspected, archived, or resumed on another machine.  It records
the BIN_SEARCH interval ``[left, right]``, the probe log, and an
optional caller payload (the best allocation found so far).
:func:`repro.core.optimize.bin_search` updates it after every probe and
consults it on resume -- a resumed search re-certifies the optimum with
a final probe, so the result is exactly the one an uninterrupted run
would have produced.  Sweeps resume through the experiment fabric's
result store instead (:mod:`repro.fabric`), whose job keys use
:func:`canonical_blob` from this module.

Crash safety is layered:

- Saves are atomic and durable (write-to-temp + fsync + rename + dir
  fsync): a crash mid-save leaves the previous checkpoint intact.
- Every saved document carries an **integrity envelope** (``integrity``
  key: schema version, monotonically increasing generation number, and
  a SHA-256 over the canonical payload), so a load *verifies* the bytes
  instead of trusting whatever parses.
- Saves rotate **generations** (``ck.json`` newest, ``ck.json.g1``
  one older, ... keep :data:`GENERATIONS` total): when the newest file
  is damaged anyway -- torn by a dying filesystem, bit-flipped, written
  by a buggy tool -- the load falls back to the newest generation that
  verifies, and renames every damaged candidate to ``*.quarantined``
  for post-mortem instead of deleting the evidence.
- When *no* candidate verifies, the load raises the typed
  :class:`CheckpointCorrupt` (a :class:`ValueError`, so existing
  ``except (ValueError, OSError)`` resume guards keep working) carrying
  a per-file damage report -- never a bare ``json.JSONDecodeError``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro import governor as _governor
from repro.chaos import ChaosDiskFull, chaos_data, chaos_point
from repro.robust.records import quarantine

__all__ = [
    "SearchCheckpoint",
    "atomic_write_json",
    "CheckpointCorrupt",
    "CorruptArtifact",
    "GENERATIONS",
    "save_generations",
    "load_generations",
    "canonical_value",
    "canonical_blob",
]

#: How many checkpoint generations a save keeps on disk.
GENERATIONS = 3

_INTEGRITY_KEY = "integrity"
_ENVELOPE_SCHEMA = 1


@dataclass
class CorruptArtifact:
    """One damaged checkpoint candidate: what was wrong, where it went."""

    path: str
    reason: str
    quarantined_to: str | None = None


class CheckpointCorrupt(ValueError):
    """No generation of a checkpoint survived integrity verification.

    Subclasses :class:`ValueError` so pre-existing resume guards
    (``except (ValueError, OSError)``) treat it as the typed failure it
    is; :attr:`reports` lists every candidate examined and why it was
    rejected (each already quarantined for post-mortem).
    """

    def __init__(self, path: str, reports: list[CorruptArtifact]):
        self.path = path
        self.reports = list(reports)
        detail = "; ".join(
            f"{r.path}: {r.reason}" for r in self.reports
        ) or "no readable candidate"
        super().__init__(
            f"checkpoint {path!r} is corrupt in every generation ({detail})"
        )


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as JSON to ``path`` atomically and durably.

    The temp file is fsynced before the rename (otherwise a crash can
    leave the *renamed* file empty or truncated: rename-over-unflushed-
    data is the classic ext4 zero-length-file hazard), and the containing
    directory is fsynced after it so the rename itself survives a power
    loss.  A failure at any step -- including an unserializable payload
    -- removes the temp file again: no ``*.tmp`` litter, and the
    previous checkpoint stays intact.
    """
    # Serialize before touching the filesystem: an unserializable
    # payload must not even create the temp file.
    data = (json.dumps(payload, indent=2) + "\n").encode()
    # Quota admission runs before any byte lands; a rejection is an
    # ENOSPC-shaped OSError that callers already tolerate (the search
    # degrades to unpersisted, it does not stop).
    _governor.charge("checkpoint", len(data), path=path)
    try:
        data, damage = chaos_data("checkpoint.write", data)
    except ChaosDiskFull as exc:
        # ENOSPC mid-write: model the worst case -- the partial frame
        # lands at the *final* path (a naive writer cut off by the full
        # disk) -- and raise, so the caller sees the same OSError the
        # real thing produces while restart-time verification finds the
        # torn file and quarantines it.
        if exc.partial:
            with open(path, "wb") as fh:
                fh.write(exc.partial)
        raise
    if damage is not None:
        # Chaos decided these bytes get damaged in transit.  Model the
        # worst case -- the damaged bytes land at the *final* path with
        # no atomicity (as if a crash interrupted a naive writer) -- and
        # report success, exactly like the real failure would.
        with open(path, "wb") as fh:
            fh.write(data)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            chaos_point("checkpoint.fsync")
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dirpath = os.path.dirname(os.path.abspath(path))
    try:
        dfd = os.open(dirpath, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds (e.g. Windows)
    try:
        os.fsync(dfd)
    except OSError:
        pass  # directory fsync unsupported on this filesystem
    finally:
        os.close(dfd)


# ----------------------------------------------------------------------
# Integrity envelope + generations


def _canonical_blob(payload: dict) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()


def _seal(payload: dict, generation: int) -> dict:
    """Attach the integrity envelope to a checkpoint document."""
    body = dict(payload)
    body.pop(_INTEGRITY_KEY, None)
    body[_INTEGRITY_KEY] = {
        "schema": _ENVELOPE_SCHEMA,
        "generation": generation,
        "sha256": hashlib.sha256(_canonical_blob(body)).hexdigest(),
    }
    return body


class _Damaged(Exception):
    """Internal: one candidate file failed verification (reason in args)."""


def _open_verified(path: str) -> tuple[dict, int]:
    """Load + verify one candidate file.

    Returns ``(payload_without_envelope, generation)``; legacy files
    (written before the envelope existed) load as generation 0.
    Raises :class:`_Damaged` with a human reason on any defect.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _Damaged(f"unreadable: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8", errors="strict"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _Damaged(f"not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise _Damaged("not a JSON object")
    envelope = data.pop(_INTEGRITY_KEY, None)
    if envelope is None:
        return data, 0  # legacy, pre-envelope checkpoint
    if not isinstance(envelope, dict):
        raise _Damaged("integrity envelope is not an object")
    schema = envelope.get("schema")
    if not isinstance(schema, int) or schema > _ENVELOPE_SCHEMA:
        raise _Damaged(f"unsupported envelope schema {schema!r}")
    expect = envelope.get("sha256")
    actual = hashlib.sha256(_canonical_blob(data)).hexdigest()
    if actual != expect:
        raise _Damaged("sha256 mismatch (payload bytes damaged)")
    generation = envelope.get("generation")
    if not isinstance(generation, int) or generation < 0:
        raise _Damaged(f"bad generation {generation!r}")
    return data, generation


def _generation_paths(path: str) -> list[str]:
    return [path] + [f"{path}.g{i}" for i in range(1, GENERATIONS)]


def save_generations(path: str, payload: dict, generation: int) -> None:
    """Seal ``payload`` and write it to ``path``, rotating the previous
    files into the ``.g1``/``.g2``/... generation slots first.  The
    first save of a run writes only ``path`` itself."""
    candidates = _generation_paths(path)
    for i in range(len(candidates) - 1, 0, -1):
        if os.path.exists(candidates[i - 1]):
            try:
                os.replace(candidates[i - 1], candidates[i])
            except OSError:
                pass  # rotation is best-effort; the new save still lands
    atomic_write_json(path, _seal(payload, generation))


def load_generations(path: str) -> tuple[dict, int, list[CorruptArtifact]]:
    """Load the newest generation of ``path`` that verifies.

    Returns ``(payload, generation, damage_reports)``.  Damaged
    candidates are quarantined (renamed ``*.quarantined``).  Raises
    :class:`FileNotFoundError` when no candidate exists at all, and
    :class:`CheckpointCorrupt` when candidates exist but none verifies.
    """
    best: dict | None = None
    best_gen = -1
    reports: list[CorruptArtifact] = []
    found_any = False
    for cand in _generation_paths(path):
        if not os.path.exists(cand):
            continue
        found_any = True
        try:
            payload, gen = _open_verified(cand)
        except _Damaged as exc:
            reports.append(
                CorruptArtifact(cand, str(exc), quarantine(cand))
            )
            continue
        if gen > best_gen or best is None:
            best, best_gen = payload, gen
    if not found_any:
        raise FileNotFoundError(path)
    if best is None:
        raise CheckpointCorrupt(path, reports)
    return best, best_gen, reports


@dataclass
class SearchCheckpoint:
    """Resumable state of one BIN_SEARCH run.

    ``feasible is None`` means the initial unconstrained SOLVE has not
    finished yet; ``left``/``right`` are only meaningful afterwards.
    ``payload`` is free-form caller state (the :class:`Allocator` stores
    the best decoded allocation there).
    """

    lower: int = 0
    upper: int = 0
    left: int | None = None
    right: int | None = None
    feasible: bool | None = None
    probes: list[dict] = field(default_factory=list)
    payload: dict | None = None
    path: str | None = None
    #: Monotonic save counter (the integrity envelope's generation
    #: number); restored on load so a resumed run keeps counting up.
    generation: int = 0
    #: Damage reports from the load that produced this object (newest
    #: generation corrupt -> fell back), for callers that surface them.
    load_reports: list = field(default_factory=list)

    VERSION = 1

    @property
    def started(self) -> bool:
        """Whether the initial SOLVE finished (there is state to resume)."""
        return self.feasible is not None

    @property
    def finished(self) -> bool:
        """Whether the recorded search already closed its interval."""
        if self.feasible is False:
            return True
        return (
            self.feasible is True
            and self.left is not None
            and self.right is not None
            and self.left >= self.right
        )

    def to_dict(self) -> dict:
        return {
            "kind": "bin_search",
            "version": self.VERSION,
            "lower": self.lower,
            "upper": self.upper,
            "left": self.left,
            "right": self.right,
            "feasible": self.feasible,
            "probes": self.probes,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchCheckpoint":
        if data.get("kind") != "bin_search":
            raise ValueError("not a bin_search checkpoint")
        if data.get("version") != cls.VERSION:
            raise ValueError(
                f"unsupported checkpoint version {data.get('version')!r}"
            )
        return cls(
            lower=data["lower"],
            upper=data["upper"],
            left=data["left"],
            right=data["right"],
            feasible=data["feasible"],
            probes=list(data.get("probes") or []),
            payload=data.get("payload"),
        )

    def save(self, path: str | None = None) -> None:
        """Persist to ``path`` (or the path it was loaded from)."""
        path = path or self.path
        if path is None:
            raise ValueError("no checkpoint path given")
        self.path = path
        self.generation += 1
        save_generations(path, self.to_dict(), self.generation)

    @classmethod
    def load(cls, path: str) -> "SearchCheckpoint":
        payload, generation, reports = load_generations(path)
        out = cls.from_dict(payload)
        out.path = path
        out.generation = generation
        out.load_reports = reports
        return out


def canonical_value(value: Any) -> Any:
    """JSON-shape normalization for fingerprinting.

    A JSON round trip turns tuples into lists -- so ``repr``-based
    hashing would not recognize a parameter that went through a store
    (``(0, 1)`` vs ``[0, 1]``).  Canonicalize containers before hashing
    so a value fingerprints identically before and after serialization.
    The experiment fabric (:mod:`repro.fabric`) keys its
    content-addressed jobs on this normalization, so a sweep cell
    hashes identically whether its parameters came from live Python
    objects or from a JSON round trip.
    """
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, dict):
        return {
            str(k): canonical_value(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    return value


def canonical_blob(value: Any) -> bytes:
    """Deterministic bytes of ``value`` for content addressing (sorted
    keys, no whitespace, tuples==lists); falls back to ``repr`` for
    values JSON cannot carry (best-effort identity)."""
    canon = canonical_value(value)
    try:
        return json.dumps(
            canon, sort_keys=True, separators=(",", ":")
        ).encode()
    except (TypeError, ValueError):
        return repr(canon).encode()
