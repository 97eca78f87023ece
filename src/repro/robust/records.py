"""Append-only framed records: the one on-disk record format.

The DRUP proof spool (:mod:`repro.certify.proofio`) and the fabric
result store (:mod:`repro.fabric.store`) are codecs over this module.
A file is a per-format magic line, then frames ``<u32 length> <u32
crc32> payload`` (little endian).  Framing makes truncation
*detectable*: a torn or corrupt tail is evidence of damage, never a
plausible shorter history.  :class:`RecordWriter` verifies every
append by reading it back, repairs damage once (truncate to the last
intact record boundary, rewrite the rest) and raises the format's
typed error on a second consecutive failure.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro import governor as _governor
from repro.chaos import ChaosDiskFull

__all__ = [
    "BAD_HEADER",
    "BadPayload",
    "RecordFormat",
    "RecordScan",
    "RecordWriter",
    "quarantine",
    "scan_file",
]

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

BAD_HEADER = "missing or damaged header"


class BadPayload(ValueError):
    """An intact frame whose payload the codec rejects (the message is
    the damage reason)."""


@dataclass(frozen=True)
class RecordFormat:
    """What differs between two framed-record artifacts."""

    magic: bytes
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]  # raises BadPayload
    #: The chaos data site frames pass on their way to disk, e.g.
    #: ``lambda blob: chaos_data("proof.append", blob)``.
    chaos: Callable[[bytes], tuple[bytes, str | None]]
    category: str  # resource-governor category of each append
    error: type[Exception]  # raised when an append fails twice
    #: None: a failed fsync fails the write attempt (the artifact must
    #: be durable).  Otherwise the chaos site in front of an fsync whose
    #: failure is tolerated (the record stays readable).
    tolerated_fsync: Callable[[], None] | None = None


@dataclass
class RecordScan:
    """What a structural scan of one file found."""

    path: str
    records: list = field(default_factory=list)
    valid_end: int = 0  # file offset of the last intact record boundary
    size: int = 0
    damaged: bool = False
    reason: str | None = None


def _frames(buf: bytes, base: int, decode: Callable[[bytes], Any]
            ) -> tuple[list, int, str | None]:
    """``(records, valid_end, damage_reason)`` of ``buf``, which starts
    at file offset ``base``."""
    records: list = []
    pos = 0
    while pos < len(buf):
        if pos + _FRAME.size > len(buf):
            return records, base + pos, "torn record header at tail"
        length, crc = _FRAME.unpack_from(buf, pos)
        start = pos + _FRAME.size
        payload = buf[start:start + length]
        if len(payload) < length:
            return records, base + pos, "torn record payload at tail"
        if zlib.crc32(payload) != crc:
            return records, base + pos, "record CRC mismatch"
        try:
            records.append(decode(payload))
        except BadPayload as exc:
            return records, base + pos, str(exc)
        pos = start + length
    return records, base + pos, None


def scan_file(path: str, fmt: RecordFormat) -> RecordScan:
    """Scan a whole file; damage is data (an unreadable file raises
    :class:`OSError`)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(fmt.magic):
        return RecordScan(path=path, size=len(blob), damaged=True,
                          reason=BAD_HEADER)
    records, end, reason = _frames(blob[len(fmt.magic):],
                                   len(fmt.magic), fmt.decode)
    return RecordScan(path=path, records=records, valid_end=end,
                      size=len(blob), damaged=reason is not None,
                      reason=reason)


def quarantine(path: str) -> str | None:
    """Rename a damaged artifact to ``<path>.quarantined`` (evidence is
    never deleted); None when the rename fails."""
    target = f"{path}.quarantined"
    try:
        os.replace(path, target)
        return target
    except OSError:
        return None


class RecordWriter:
    """Append-only writer with verified appends.  Subclasses open the
    file through :meth:`_start` or :meth:`_resume`, by their own policy."""

    def __init__(self, path: str, fmt: RecordFormat):
        self.path = path
        self.fmt = fmt
        self.records = 0
        self.repairs = 0
        self.recovered_tail_bytes = 0
        self.quarantined_from: str | None = None

    def _start(self) -> None:
        """Begin an empty artifact at ``path``, replacing any file."""
        self._fh = open(self.path, "w+b")
        self._fh.write(self.fmt.magic)
        self._fh.flush()
        self._end = len(self.fmt.magic)

    def _resume(self, scan: RecordScan) -> None:
        """Append after the last intact record of ``scan``'s file,
        truncating a torn tail."""
        self._fh = open(self.path, "r+b")
        if scan.damaged:
            self.recovered_tail_bytes = scan.size - scan.valid_end
            self._fh.truncate(scan.valid_end)
            self.repairs += 1
        self.records = len(scan.records)
        self._end = scan.valid_end

    def _land(self, data: bytes) -> None:
        self._fh.seek(self._end)
        self._fh.write(data)
        self._fh.flush()

    def _sync(self) -> None:
        if self.fmt.tolerated_fsync is None:
            os.fsync(self._fh.fileno())
            return
        try:
            self.fmt.tolerated_fsync()
            os.fsync(self._fh.fileno())
        except OSError:
            pass  # durability reduced, readability intact

    def extend(self, items: Sequence) -> None:
        """Durably append ``items``, verified by read-back.  Records that
        did not land intact are rewritten once; a second failure raises
        the format's error, the file ending at its last intact record."""
        fmt = self.fmt
        pending = []
        for item in items:
            payload = fmt.encode(item)
            pending.append(_FRAME.pack(len(payload), zlib.crc32(payload))
                           + payload)
        if not pending:
            return
        for _attempt in (0, 1):
            blob = b"".join(pending)
            try:
                # A quota rejection is ENOSPC-shaped and takes the same
                # retry-then-fail path as a real full disk.
                _governor.charge(fmt.category, len(blob), path=self.path)
                data, _damage = fmt.chaos(blob)
                self._land(data)
                self._sync()
            except ChaosDiskFull as exc:
                # ENOSPC mid-write: the frame prefix reached the disk;
                # land it (the retry's read-back must cope), retry.
                if exc.partial:
                    try:
                        self._land(exc.partial)
                    except OSError:
                        pass
                continue
            except OSError:
                continue  # transient write failure: one retry
            self._fh.truncate(self._end + len(data))
            self._fh.seek(self._end)
            got, end, reason = _frames(self._fh.read(), self._end,
                                       fmt.decode)
            self.records += len(got)
            self._end = end
            if reason is None and len(got) == len(pending):
                return
            self.repairs += 1  # torn or corrupt landing: cut it off
            self._fh.truncate(end)
            pending = pending[len(got):]
        try:
            self._fh.truncate(self._end)  # a landed ENOSPC prefix
        except OSError:
            pass
        raise fmt.error(
            f"{self.path}: append failed verification twice "
            f"({len(pending)} records not durably recorded)"
        )

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
