"""Append-only framed records: the one on-disk record format.

The DRUP proof spool (:mod:`repro.certify.proofio`), the fabric result
store (:mod:`repro.fabric.store`) and the BIN_SEARCH checkpoint
(:mod:`repro.robust.checkpoint`) are codecs over this module.
A file is a per-format magic line, then frames ``<u32 length> <u32
crc32> payload`` (little endian).  Framing makes truncation
*detectable*: a torn or corrupt tail is evidence of damage, never a
plausible shorter history.  :class:`RecordWriter` verifies every
append by reading it back, repairs damage once (truncate to the last
intact record boundary, rewrite the rest) and raises the format's
typed error on a second consecutive failure (on the first, for a
format that does not retry).
"""

from __future__ import annotations

import json
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
    "decode_json",
    "encode_json",
    "quarantine",
    "scan_file",
]

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

BAD_HEADER = "missing or damaged header"


class BadPayload(ValueError):
    """An intact frame whose payload the codec rejects (the message is
    the damage reason)."""


def encode_json(record: dict) -> bytes:
    """The payload of a JSON-object record (sorted keys, no spaces)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def decode_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise BadPayload("record payload is not JSON") from None
    if not isinstance(obj, dict):
        raise BadPayload("record is not a JSON object")
    return obj


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
    error: type[Exception]  # raised when an append fails for good
    #: The fsync hook: the chaos site in front of each fsync (e.g.
    #: ``lambda: chaos_point("fabric.store.fsync")``), and whether a
    #: failed fsync is tolerated (the record stays readable) or fails
    #: the write attempt (the artifact must be durable).
    fsync_chaos: Callable[[], None] | None = None
    fsync_tolerated: bool = False
    #: False: a failed attempt fails the append at once (a checkpoint's
    #: next save carries what this one missed).
    retry: bool = True


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

    def _open(self) -> None:
        """Open ``path`` for update, creating it; truncates nothing."""
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        self._fh = os.fdopen(fd, "r+b")

    def _start(self) -> None:
        """Begin an empty artifact at ``path``, replacing any file, and
        fsync the directory so the new name survives a crash."""
        self._open()
        self._fh.truncate(0)
        self._fh.write(self.fmt.magic)
        self._fh.flush()
        self._end = len(self.fmt.magic)
        try:
            dfd = os.open(os.path.dirname(os.path.abspath(self.path)),
                          os.O_RDONLY)
            try:
                os.fsync(dfd)
            finally:
                os.close(dfd)
        except OSError:
            pass  # no directory fds or directory fsync here

    def _resume(self, scan: RecordScan) -> None:
        """Append after the last intact record of ``scan``'s file,
        truncating a torn tail."""
        self._open()
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
        try:
            if self.fmt.fsync_chaos is not None:
                self.fmt.fsync_chaos()
            os.fsync(self._fh.fileno())
        except OSError:
            if not self.fmt.fsync_tolerated:
                raise  # fails the write attempt

    def extend(self, items: Sequence) -> None:
        """Durably append ``items``, verified by read-back.  Records that
        did not land intact are rewritten once (if the format retries);
        a second failure raises the format's error, the file ending at
        its last intact record."""
        fmt = self.fmt
        pending = []
        for item in items:
            payload = fmt.encode(item)
            pending.append(_FRAME.pack(len(payload), zlib.crc32(payload))
                           + payload)
        if not pending:
            return
        cause: OSError | None = None
        for _attempt in range(2 if fmt.retry else 1):
            blob = b"".join(pending)
            try:
                # A quota rejection is ENOSPC-shaped and takes the same
                # retry-then-fail path as a real full disk.
                _governor.charge(fmt.category, len(blob), path=self.path)
                data, _damage = fmt.chaos(blob)
                self._land(data)
                self._sync()
            except OSError as exc:  # transient write failure: one retry
                cause = exc
                if isinstance(exc, ChaosDiskFull) and exc.partial:
                    # ENOSPC mid-write: the frame prefix reached the
                    # disk; land it (the retry's read-back must cope).
                    try:
                        self._land(exc.partial)
                    except OSError:
                        pass
                continue
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
            f"{self.path}: append failed verification "
            f"{'twice' if fmt.retry else 'once'} "
            f"({len(pending)} records not durably recorded)"
        ) from cause

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
