"""The append-only, deduplicating result store.

A fabric directory holds ``segments/<writer>.seg``, one segment per
writer, so concurrent workers never share a file descriptor.  A segment
is a :mod:`repro.robust.records` file (magic ``REPRO-FABRIC v1``), one
canonical-JSON result record per frame:

- **verified appends**: a damaged landing (chaos site
  ``fabric.store.append``, or a dying disk) is repaired once; a second
  failure raises :class:`FabricStoreError` and the cell stays
  unrecorded.  A failed fsync (site ``fabric.store.fsync``) is
  tolerated: the record is readable, and a record lost to power
  failure only re-runs its cell;
- **torn-tail repair on open**: a worker resuming after SIGKILL
  truncates trailing damage and appends at the last intact boundary; a
  damaged *header* quarantines the segment and restarts it;
- **dedupe on key**: :meth:`ResultStore.scan` merges all segments into
  one ``key -> record`` map; among duplicates (two workers raced a
  cell, a re-run after a lost lease) the first record in segment-name
  order wins, so the merged view is a pure function of the bytes;
- **compaction that quarantines**: :meth:`ResultStore.compact` rewrites
  the deduped records into one fresh segment and renames unreadable
  segments to ``*.quarantined`` instead of dying on them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.chaos import chaos_data, chaos_point
from repro.robust.records import (
    BAD_HEADER,
    RecordFormat,
    RecordScan,
    RecordWriter,
    decode_json,
    encode_json,
    quarantine,
    scan_file,
)

__all__ = [
    "MAGIC",
    "FabricStoreError",
    "SegmentScan",
    "SegmentWriter",
    "ResultStore",
    "scan_segment",
]

MAGIC = b"REPRO-FABRIC v1\n"

#: What a structural scan of one segment found.
SegmentScan = RecordScan


class FabricStoreError(RuntimeError):
    """A store segment failed its structural integrity check and could
    not be repaired."""


_FORMAT = RecordFormat(
    magic=MAGIC, encode=encode_json, decode=decode_json,
    chaos=lambda blob: chaos_data("fabric.store.append", blob),
    category="fabric", error=FabricStoreError,
    fsync_chaos=lambda: chaos_point("fabric.store.fsync"),
    fsync_tolerated=True,
)


def scan_segment(path: str) -> SegmentScan:
    """Structurally scan one segment without raising (damage is data)."""
    try:
        return scan_file(path, _FORMAT)
    except OSError as exc:
        return SegmentScan(path=path, damaged=True,
                           reason=f"unreadable: {exc}")


class SegmentWriter(RecordWriter):
    """Append-only writer for one segment.  Re-opening a segment repairs
    a torn tail; a damaged *header* quarantines it and starts afresh
    (its records were never readable, so nothing durable is lost)."""

    def __init__(self, path: str):
        super().__init__(path, _FORMAT)
        scan = scan_segment(path) if os.path.exists(path) else None
        if scan is not None and scan.reason == BAD_HEADER:
            self.quarantined_from = quarantine(path)
            scan = None
        if scan is None:
            self._start()
        else:
            self._resume(scan)

    def append(self, record: dict) -> None:
        """Durably append one record (:class:`FabricStoreError` after a
        second failed attempt)."""
        self.extend([record])


@dataclass
class StoreScan:
    """A whole-store scan: the deduped record map plus damage evidence."""

    records: dict[str, dict] = field(default_factory=dict)
    duplicates: int = 0
    damaged_segments: list[SegmentScan] = field(default_factory=list)
    repaired_tails: int = 0


class ResultStore:
    """A directory of segments, read as one deduplicated key/value map."""

    SEGMENT_SUFFIX = ".seg"

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.segment_dir = os.path.join(self.root, "segments")
        os.makedirs(self.segment_dir, exist_ok=True)

    def segment_path(self, name: str) -> str:
        return os.path.join(self.segment_dir, name + self.SEGMENT_SUFFIX)

    def writer(self, name: str) -> SegmentWriter:
        """An append-only writer on segment ``name`` (repairing any torn
        tail a crashed predecessor left behind)."""
        return SegmentWriter(self.segment_path(name))

    def _segments(self) -> list[str]:
        try:
            names = os.listdir(self.segment_dir)
        except OSError:
            return []
        return sorted(
            os.path.join(self.segment_dir, n)
            for n in names if n.endswith(self.SEGMENT_SUFFIX)
        )

    def scan(self) -> StoreScan:
        """Merge every segment into one ``key -> record`` map.

        Records missing a ``key`` field are counted as damage of their
        segment; the dedupe winner is the first record in sorted
        segment-name order, so the merged view is a pure function of
        the bytes on disk.
        """
        out = StoreScan()
        for path in self._segments():
            scan = scan_segment(path)
            if scan.damaged:
                out.damaged_segments.append(scan)
                if scan.reason not in (None, BAD_HEADER):
                    out.repaired_tails += 1
            for rec in scan.records:
                key = rec.get("key")
                if not isinstance(key, str):
                    out.damaged_segments.append(SegmentScan(
                        path=path, damaged=True,
                        reason="record without a key",
                    ))
                    continue
                if key in out.records:
                    out.duplicates += 1
                else:
                    out.records[key] = rec
        return out

    def compact(self) -> dict:
        """Rewrite the deduped records into one fresh segment.

        Unreadable segments are quarantined (``*.quarantined``), never
        deleted; readable segments are removed only after the merged
        replacement is durably on disk.  Returns a summary dict.
        """
        merged = self.scan()
        old = self._segments()
        n = 0
        while True:
            compact_path = self.segment_path(f"compact-{n:04d}")
            if not os.path.exists(compact_path):
                break
            n += 1
        writer = SegmentWriter(compact_path)
        try:
            for key in sorted(merged.records):
                writer.append(merged.records[key])
        finally:
            writer.close()
        quarantined = []
        for scan in merged.damaged_segments:
            if scan.reason == BAD_HEADER:
                moved = quarantine(scan.path)
                if moved:
                    quarantined.append(moved)
        for path in old:
            if path == compact_path or not os.path.exists(path):
                continue
            try:
                os.remove(path)
            except OSError:
                pass  # a leftover segment only costs scan time
        return {
            "segment": compact_path,
            "records": len(merged.records),
            "duplicates_removed": merged.duplicates,
            "quarantined": quarantined,
        }
