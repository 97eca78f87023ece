"""Checkpoint/resume state for binary searches.

:class:`SearchCheckpoint` records the BIN_SEARCH interval ``[left,
right]``, the probe log, and an optional caller payload (the best
allocation found so far).  :func:`repro.core.optimize.bin_search`
updates it after every probe and consults it on resume -- a resumed
search re-certifies the optimum with a final probe, so the result is
exactly the one an uninterrupted run would have produced.

A search only adds probes and narrows one interval, so the checkpoint
is an append-only :mod:`repro.robust.records` file: each save appends
one JSON record of what changed, and a load folds the intact records
(a torn tail loses at most that save; a damaged header raises
:class:`CheckpointCorrupt` and quarantines the file).  One search
writes a file at a time, under an exclusive ``flock``.  Only
``REPRO-CHECKPOINT v1`` files load: the JSON checkpoints of earlier
releases are past the compatibility horizon and count as damaged.  See
``docs/ROBUSTNESS.md`` section 3.  The fabric's job keys use
:func:`canonical_blob` from this module.
"""

from __future__ import annotations

import copy
import fcntl
from dataclasses import dataclass, field
from typing import Any

from repro.chaos import chaos_data, chaos_point
from repro.robust.records import (
    BAD_HEADER,
    RecordFormat,
    RecordWriter,
    decode_json,
    encode_json,
    quarantine,
    scan_file,
)

__all__ = [
    "MAGIC",
    "SearchCheckpoint",
    "CheckpointCorrupt",
    "CheckpointWriteError",
    "CorruptArtifact",
    "canonical_value",
    "canonical_blob",
]

MAGIC = b"REPRO-CHECKPOINT v1\n"


class CheckpointWriteError(OSError):
    """A save did not land durably; the file ends at its last intact
    record (an ``OSError``, so a search degrades to unpersisted)."""


_FORMAT = RecordFormat(
    # save() encodes a record before the file is touched.
    magic=MAGIC, encode=bytes, decode=decode_json,
    chaos=lambda blob: chaos_data("checkpoint.write", blob),
    category="checkpoint", error=CheckpointWriteError,
    fsync_chaos=lambda: chaos_point("checkpoint.fsync"), retry=False,
)


@dataclass
class CorruptArtifact:
    """One damaged checkpoint file: what was wrong, where it went."""

    path: str
    reason: str
    quarantined_to: str | None = None


class CheckpointCorrupt(ValueError):
    """A checkpoint file holds no readable record header.

    Subclasses :class:`ValueError` so pre-existing resume guards
    (``except (ValueError, OSError)``) treat it as the typed failure it
    is; :attr:`reports` says why the file was rejected and where it was
    quarantined for post-mortem.
    """

    def __init__(self, path: str, reports: list[CorruptArtifact]):
        self.path = path
        self.reports = list(reports)
        detail = "; ".join(f"{r.path}: {r.reason}" for r in self.reports)
        super().__init__(f"checkpoint {path!r} is corrupt ({detail})")


class _Log(RecordWriter):
    """The one writer of a checkpoint file.  It holds an exclusive
    ``flock`` from open to close, taken before anything is truncated;
    :class:`BlockingIOError` when another writer holds it."""

    def __init__(self, path: str, scan=None):
        super().__init__(path, _FORMAT)
        if scan is None:
            self._start()
        else:
            self._resume(scan)

    def _open(self) -> None:
        super()._open()
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._fh.close()
            raise


_STATE = ("lower", "upper", "left", "right", "feasible", "probes", "payload")


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
    #: Number of saves behind this state, counted across resumes.
    generation: int = 0
    #: Damage the load found (a torn record tail, or a header cut short).
    load_reports: list = field(default_factory=list)
    #: What the file at ``path`` holds (``to_dict()`` plus
    #: ``generation``) in ``_records`` records; None when it holds
    #: nothing of this search, so the next save starts it afresh.
    _folded: dict | None = field(default=None, init=False, repr=False,
                                 compare=False)
    _records: int = field(default=0, init=False, repr=False, compare=False)
    _writer: _Log | None = field(default=None, init=False, repr=False,
                                 compare=False)

    VERSION = 1

    @property
    def started(self) -> bool:
        """Whether the initial SOLVE finished (there is state to resume)."""
        return self.feasible is not None

    @property
    def finished(self) -> bool:
        """Whether the recorded search already closed its interval."""
        return self.feasible is False or (
            self.feasible is True and None not in (self.left, self.right)
            and self.left >= self.right
        )

    def to_dict(self) -> dict:
        return dict(kind="bin_search", version=self.VERSION,
                    **{k: getattr(self, k) for k in _STATE})

    @classmethod
    def from_dict(cls, data: dict) -> "SearchCheckpoint":
        if data.get("kind") != "bin_search":
            raise ValueError("not a bin_search checkpoint")
        if data.get("version") != cls.VERSION:
            raise ValueError(
                f"unsupported checkpoint version {data.get('version')!r}"
            )
        return cls(**{k: data[k] for k in _STATE[:5]},
                   probes=list(data.get("probes") or []),
                   payload=data.get("payload"))

    def save(self, path: str | None = None) -> None:
        """Persist to ``path`` (or the path it was loaded from) by
        appending one record: what changed since the last save.

        Raises :class:`OSError` when the record did not land (the next
        save carries it again), and :class:`BlockingIOError` when
        another search is writing the file -- this one then drops its
        ``path`` and runs unpersisted.
        """
        path = path or self.path
        if path is None:
            raise ValueError("no checkpoint path given")
        if path != self.path:
            self.close()
            self._folded = None
        self.path = path
        scan = None
        if self._writer is None and self._folded is not None:
            # Append only while the file holds exactly the records this
            # object folded; otherwise start it afresh.
            try:
                scan = scan_file(path, _FORMAT)
            except OSError:
                pass
            if scan is None or scan.reason == BAD_HEADER or len(
                    scan.records) != self._records:
                scan = self._folded = None
        doc = dict(self.to_dict(), generation=self.generation + 1)
        probes = doc.pop("probes")
        old = self._folded
        if old is not None and probes[:len(old["probes"])] != old["probes"]:
            old = None  # not an extension of the file: start afresh
        if old is None:
            record = dict(doc, probes=probes)
        else:
            record = {k: v for k, v in doc.items() if old[k] != v}
            if len(probes) > len(old["probes"]):
                record["probes"] = probes[len(old["probes"]):]
        blob = encode_json(record)  # an unserializable state fails here
        if old is None and self._records:
            self.close()
        if self._writer is None:
            try:
                self._writer = _Log(path, None if old is None else scan)
            except BlockingIOError:
                self.path = None  # another search owns the file
                raise
        self._writer.extend([blob])
        self.generation += 1
        self._records = self._writer.records
        # Kept apart from the caller's objects, which may change in place.
        doc["payload"] = (old["payload"] if "payload" not in record
                          else copy.deepcopy(doc["payload"]))
        self._folded = dict(doc, probes=list(probes))

    def close(self) -> None:
        """Release the file and its lock; a later save reopens it."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    @classmethod
    def resume(cls, path: str) -> "SearchCheckpoint":
        """The one resume decision: :meth:`load` ``path`` when the file
        exists, else a fresh checkpoint that the first save writes to
        ``path``."""
        try:
            return cls.load(path)
        except FileNotFoundError:
            return cls(path=path)

    @classmethod
    def load(cls, path: str) -> "SearchCheckpoint":
        scan = scan_file(path, _FORMAT)
        if scan.reason == BAD_HEADER:
            with open(path, "rb") as fh:
                head = fh.read(len(MAGIC))
            if not MAGIC.startswith(head):
                # Not a record file: damaged, or a JSON checkpoint of a
                # release before the compatibility horizon.
                raise CheckpointCorrupt(path, [CorruptArtifact(
                    path, BAD_HEADER, quarantine(path))])
        state: dict = {}
        probes: list = []
        for record in scan.records:
            probes += record.pop("probes", [])
            state.update(record)
        out = cls(path=path)  # an empty fold holds nothing to resume
        if state:
            out = cls.from_dict(dict(state, probes=probes))
            out.path, out.generation = path, state["generation"]
            out._folded = dict(state, probes=list(probes))
            out._records = len(scan.records)
        if scan.damaged:
            out.load_reports = [CorruptArtifact(path, scan.reason)]
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
        return encode_json(canon)
    except (TypeError, ValueError):
        return repr(canon).encode()
