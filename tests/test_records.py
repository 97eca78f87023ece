"""The framed-record layer (repro.robust.records) under both formats.

1. pinned fixtures: ``tests/data/records`` holds a ``REPRO-PROOF v1``
   spool, a ``REPRO-FABRIC v1`` segment and a torn-tail copy of each,
   written by the proof spool and segment writers as they stood before they
   shared one record layer (commit cc0baa0), together with what that
   version's readers said about them (``verdicts.json``).  The
   readers must return the same records and damage verdicts, and the
   writers must reproduce the files byte for byte;
2. one fault matrix for both writers: every data fault kind at the
   append site, once (repaired in place) and twice in a row (the typed
   error, with the file left ending at its last intact record).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil

import pytest

from repro.certify import ProofSpool, load_proof, scan_artifact
from repro.certify.proofio import ProofArtifactError
from repro.chaos import ChaosFault, ChaosSchedule, active
from repro.fabric.store import FabricStoreError, SegmentWriter, scan_segment

DATA = pathlib.Path(__file__).resolve().parent / "data" / "records"
VERDICTS = json.loads((DATA / "verdicts.json").read_text())
INTACT = {"spool-torn.proof": "spool.proof",
          "segment-torn.seg": "segment.seg"}


def _read(path: str) -> tuple[list, object]:
    """``(records, scan)`` through the public reader of the format."""
    if path.endswith(".proof"):
        return load_proof(path, strict=False), scan_artifact(path)
    scan = scan_segment(path)
    return scan.records, scan


def _write(path: str, records: list) -> None:
    if path.endswith(".proof"):
        with ProofSpool(path) as sp:
            sp.append(records)
    else:
        with SegmentWriter(path) as w:
            for rec in records:
                w.append(rec)


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_pinned_fixture_reads_as_before(name):
    want = VERDICTS[name]
    records, scan = _read(str(DATA / name))
    assert records == want["records"]
    assert (scan.valid_end, scan.size, scan.damaged, scan.reason) == (
        want["valid_end"], want["size"], want["damaged"], want["reason"]
    )


def test_torn_pinned_spool_fails_a_strict_load():
    with pytest.raises(ProofArtifactError, match="torn record payload"):
        load_proof(str(DATA / "spool-torn.proof"))


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_replayed_records_are_byte_identical(name, tmp_path):
    out = str(tmp_path / name)
    _write(out, VERDICTS[name]["records"])
    want = (DATA / name).read_bytes()[:VERDICTS[name]["valid_end"]]
    assert pathlib.Path(out).read_bytes() == want


@pytest.mark.parametrize("name", sorted(INTACT))
def test_reopened_torn_fixture_repairs_to_the_intact_file(name, tmp_path):
    path = str(tmp_path / name)
    shutil.copy(DATA / name, path)
    if name.endswith(".proof"):
        writer = ProofSpool(path, fresh=False)
    else:
        writer = SegmentWriter(path)
    with writer:
        assert writer.repairs == 1
        assert writer.records == len(VERDICTS[name]["records"])
    assert (pathlib.Path(path).read_bytes()
            == (DATA / INTACT[name]).read_bytes())


# ---------------------------------------------------------------------------
# 2. one fault matrix for both writers

LINES = [f"step {i} 1 2 -3 0" for i in range(8)]
RECORDS = [{"key": f"k{i}", "value": i} for i in range(3)]


class _Spool:
    site, error, suffix = "proof.append", ProofArtifactError, ".proof"
    first, second, third = LINES[:4], LINES[4:7], LINES[7:]

    @staticmethod
    def writer(path):
        return ProofSpool(path)

    @staticmethod
    def append(writer, batch):
        writer.append(batch)


class _Segment:
    site, error, suffix = "fabric.store.append", FabricStoreError, ".seg"
    first, second, third = RECORDS[:1], RECORDS[1:2], RECORDS[2:]

    @staticmethod
    def writer(path):
        return SegmentWriter(path)

    @staticmethod
    def append(writer, batch):
        (record,) = batch
        writer.append(record)


@pytest.mark.parametrize("times", [1, 2], ids=["once", "twice"])
@pytest.mark.parametrize("kind", ["torn-write", "corrupt-bytes",
                                  "io-error", "disk-full"])
@pytest.mark.parametrize("fmt", [_Spool, _Segment],
                         ids=["spool", "segment"])
def test_append_fault(tmp_path, fmt, kind, times):
    """The second append meets ``kind`` at the format's data site
    ``times`` times in a row; the third append is fault-free."""
    chaos = ChaosSchedule(str(tmp_path / "chaos"),
                          [ChaosFault(fmt.site, 2, kind, repeat=times)])
    path = str(tmp_path / f"artifact{fmt.suffix}")
    with active(chaos), fmt.writer(path) as w:
        fmt.append(w, fmt.first)
        if times == 1:
            fmt.append(w, fmt.second)
            # Damage that landed was truncated and rewritten (one
            # repair); a failed write was simply retried.
            landed = kind in ("torn-write", "corrupt-bytes")
            assert w.repairs == (1 if landed else 0)
            kept = fmt.first + fmt.second
        else:
            with pytest.raises(fmt.error, match="twice"):
                fmt.append(w, fmt.second)
            # Only records that landed intact are left behind: a
            # torn batch may have recorded a prefix, never damage.
            kept, scan = _read(path)
            assert not scan.damaged
            assert fmt.first == kept[:len(fmt.first)]
            assert kept == (fmt.first + fmt.second)[:len(kept)]
            assert len(kept) < len(fmt.first + fmt.second)
        assert w.records == len(kept)
        fmt.append(w, fmt.third)  # the writer stays usable
    records, scan = _read(path)
    assert not scan.damaged
    assert records == kept + fmt.third
    assert [e["site"] for e in chaos.events()] == [fmt.site] * times


def test_segment_append_survives_fsync_failure(tmp_path):
    """The fsync policy is per format: a segment tolerates a failed
    fsync behind ``fabric.store.fsync``; the spool has no such site,
    because a failed fsync fails its append."""
    chaos = ChaosSchedule(str(tmp_path / "chaos"),
                          [ChaosFault("fabric.store.fsync", 1, "io-error")])
    path = str(tmp_path / "w0.seg")
    with active(chaos), SegmentWriter(path) as w:
        w.append({"key": "a", "value": 1})
        assert w.repairs == 0
    assert scan_segment(path).records == [{"key": "a", "value": 1}]
    assert [e["site"] for e in chaos.events()] == ["fabric.store.fsync"]


def test_spool_fsync_failure_fails_the_attempt(tmp_path, monkeypatch):
    calls = []
    real_fsync = os.fsync

    def flaky_fsync(fd):
        calls.append(fd)
        if len(calls) <= 2:
            raise OSError(5, "injected fsync failure")
        real_fsync(fd)

    path = str(tmp_path / "p.proof")
    with ProofSpool(path) as sp:
        monkeypatch.setattr(os, "fsync", flaky_fsync)
        with pytest.raises(ProofArtifactError, match="twice"):
            sp.append(LINES[:2])
        sp.append(LINES[:2])  # third fsync succeeds
        monkeypatch.undo()
    assert load_proof(path) == LINES[:2]
