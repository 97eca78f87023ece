"""Crash-safe on-disk proof artifacts.

The in-memory :class:`repro.sat.proof.ProofLog` is the source of truth
while a solve runs; this module persists it so a certificate can be
re-checked offline.  The artifact is a :mod:`repro.robust.records` file
(magic ``REPRO-PROOF v1``), one proof line per frame, so a truncated
tail is detectable damage, never a shorter proof that could certify a
weaker claim.  Readers raise :class:`ProofArtifactError` on damage; the
writer repairs a damaged append once and otherwise fails the
certificate -- a failed fsync included, because a certificate must be
durable.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass

from repro.chaos import chaos_data
from repro.robust.records import (
    BAD_HEADER,
    BadPayload,
    RecordFormat,
    RecordScan,
    RecordWriter,
    quarantine,
    scan_file,
)

__all__ = [
    "MAGIC",
    "ProofArtifactError",
    "ArtifactScan",
    "ProofSpool",
    "scan_artifact",
    "load_proof",
    "resolve_spool_path",
]

MAGIC = b"REPRO-PROOF v1\n"


class ProofArtifactError(RuntimeError):
    """A proof artifact failed its structural integrity check."""


def _decode_line(payload: bytes) -> str:
    try:
        return payload.decode()
    except UnicodeDecodeError:
        raise BadPayload("record payload is not UTF-8") from None


_FORMAT = RecordFormat(
    magic=MAGIC, encode=str.encode, decode=_decode_line,
    chaos=lambda blob: chaos_data("proof.append", blob),
    category="proof", error=ProofArtifactError,
)


@dataclass
class ArtifactScan:
    """What a structural scan of one artifact found."""

    records: int
    valid_end: int  # file offset of the last intact record boundary
    size: int
    damaged: bool
    reason: str | None = None


def scan_artifact(path: str) -> ArtifactScan:
    """Structurally scan an artifact without raising (damage is data)."""
    scan = scan_file(path, _FORMAT)
    return ArtifactScan(
        records=len(scan.records), valid_end=scan.valid_end,
        size=scan.size, damaged=scan.damaged, reason=scan.reason,
    )


def _scan_with_header(path: str) -> RecordScan:
    scan = scan_file(path, _FORMAT)
    if scan.reason == BAD_HEADER:
        raise ProofArtifactError(
            f"{path}: missing or damaged proof artifact header"
        )
    return scan


def load_proof(path: str, strict: bool = True) -> list[str]:
    """Read the proof lines back.  With ``strict`` (the default) any
    structural damage raises :class:`ProofArtifactError` -- a truncated
    artifact must never pass for a complete proof.  ``strict=False``
    returns the intact prefix (post-mortem tooling)."""
    scan = _scan_with_header(path)
    if scan.damaged and strict:
        raise ProofArtifactError(
            f"{path}: damaged after {len(scan.records)} records: "
            f"{scan.reason}"
        )
    return scan.records


#: Per-process sequence disambiguating concurrent spools that share a
#: request fingerprint (the fingerprint covers the solve *options*, not
#: the system, so two simultaneous solves of different systems under
#: identical options would otherwise collide).
_spool_seq = itertools.count()
_spool_seq_lock = threading.Lock()


def resolve_spool_path(proof_log: str, fingerprint: str) -> str:
    """Resolve a ``--proof-log`` argument to the spool file to write.

    A plain file path is used as-is (the single-solve CLI contract).  A
    *directory* -- an existing one, or a path ending in the separator --
    is shared by concurrent solves, so the spool file inside it is
    namespaced by the request fingerprint plus pid and a per-process
    sequence number: two simultaneous certified solves never open the
    same artifact (the regression in tests/test_certify.py drives two
    threads through one directory).  The resolved path is recorded on
    the certificate (``proof_artifact``), so callers can find it.
    """
    if not (proof_log.endswith(os.sep) or os.path.isdir(proof_log)):
        return proof_log
    with _spool_seq_lock:
        seq = next(_spool_seq)
    name = f"{fingerprint}-{os.getpid()}-{seq}.proof"
    return os.path.join(proof_log, name)


class ProofSpool(RecordWriter):
    """Append-only proof writer.  ``fresh=True`` (a new run) starts an
    empty artifact, quarantining a *damaged* leftover first (an intact
    one belonged to a previous run and is replaced); ``fresh=False``
    resumes, repairing a torn tail and refusing a damaged header."""

    def __init__(self, path: str, fresh: bool = True):
        super().__init__(path, _FORMAT)
        if fresh:
            if os.path.exists(path) and scan_file(path, _FORMAT).damaged:
                self.quarantined_from = quarantine(path)
            self._start()
            return
        self._resume(_scan_with_header(path))

    def append(self, lines: list[str]) -> None:
        """Append proof lines; verified by read-back.  A second
        consecutive failure raises :class:`ProofArtifactError` -- the
        caller must fail its certificate, not trust the artifact."""
        self.extend(lines)
