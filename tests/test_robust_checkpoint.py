"""Tests of checkpoint/resume (repro.robust.checkpoint).

The core promise: an interrupted binary search, resumed from its
checkpoint on a *fresh* solver, reaches exactly the optimum an
uninterrupted run would have -- with a model to show for it.
"""

import hashlib
import json
import os
import struct

import pytest

from repro.arith import IntSolver
from repro.core import SolveRequest
from repro.core.optimize import CheckpointMismatch, bin_search
from repro.robust import Budget, SearchCheckpoint
from repro.robust.checkpoint import (
    _FORMAT,
    MAGIC,
    CheckpointCorrupt,
    canonical_blob,
)
from repro.robust.records import scan_file


def _solver():
    s = IntSolver()
    x = s.int_var("x", 0, 1023)
    y = s.int_var("y", 0, 1023)
    s.require(x + y >= 777)
    s.require(x >= 37)
    return s, x


class TestSearchCheckpointCodec:
    def test_roundtrip(self, tmp_path):
        ck = SearchCheckpoint(lower=0, upper=100, left=10, right=40,
                              feasible=True,
                              probes=[{"lo": 0, "hi": 100, "sat": True,
                                       "cost": 40, "seconds": 0.1,
                                       "conflicts": 5, "decisions": 9,
                                       "interrupted": False}],
                              payload={"note": "best"})
        path = str(tmp_path / "ck.json")
        ck.save(path)
        back = SearchCheckpoint.load(path)
        assert back.to_dict() == ck.to_dict()
        assert back.path == path

    def test_rejects_foreign_kind_and_version(self):
        with pytest.raises(ValueError):
            SearchCheckpoint.from_dict({"kind": "sweep", "version": 1})
        with pytest.raises(ValueError):
            SearchCheckpoint.from_dict({"kind": "bin_search", "version": 99})

    def test_save_is_atomic(self, tmp_path):
        """A save is one appended record: cut anywhere inside it (a
        crash mid-save), the file still loads as the previous save."""
        path = str(tmp_path / "ck.json")
        ck = SearchCheckpoint(lower=0, upper=9, left=0, right=9,
                              feasible=True)
        ck.save(path)
        size = os.path.getsize(path)
        ck.left = 4
        ck.save(path)
        # No temp droppings next to the checkpoint.
        assert os.listdir(tmp_path) == ["ck.json"]
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob.startswith(MAGIC)
        for cut in range(size, len(blob)):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            back = SearchCheckpoint.load(path)
            assert (back.left, back.generation) == (0, 1)

    def test_save_is_durable(self, tmp_path, monkeypatch):
        """Every save fsyncs the file before it returns, and creating the
        file fsyncs its directory -- otherwise a crash can lose the
        record or the file's name."""
        import stat

        events = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            mode = os.fstat(fd).st_mode
            events.append("fsync-dir" if stat.S_ISDIR(mode)
                          else "fsync-file")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        path = str(tmp_path / "ck.json")
        ck = SearchCheckpoint(lower=0, upper=9)
        ck.save(path)
        ck.save(path)
        ck.close()
        assert events == ["fsync-dir", "fsync-file", "fsync-file"]
        assert SearchCheckpoint.load(path).generation == 2

    def test_save_survives_unsupported_directory_fsync(self, tmp_path,
                                                       monkeypatch):
        """A filesystem refusing directory fsync degrades gracefully."""
        import stat

        real_fsync = os.fsync

        def flaky_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("directory fsync unsupported")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        path = str(tmp_path / "ck.json")
        SearchCheckpoint(lower=0, upper=9, payload={"ok": True}).save(path)
        assert SearchCheckpoint.load(path).payload == {"ok": True}

    def test_started_and_finished(self):
        ck = SearchCheckpoint()
        assert not ck.started and not ck.finished
        ck.feasible = True
        ck.left, ck.right = 3, 7
        assert ck.started and not ck.finished
        ck.left = 7
        assert ck.finished
        assert SearchCheckpoint(feasible=False).finished  # certified UNSAT


class TestBinSearchResume:
    def test_interrupt_then_resume_matches_uninterrupted(self, tmp_path):
        s_ref, x_ref = _solver()
        reference = bin_search(s_ref, x_ref, 0, 1023)
        assert reference.status == "optimal" and reference.optimum == 37
        decisions = s_ref.stats.decisions

        path = str(tmp_path / "search.json")
        s1, x1 = _solver()
        ck = SearchCheckpoint()
        ck.path = path
        out1 = bin_search(s1, x1, 0, 1023, checkpoint=ck,
                          budget=Budget(
                              max_decisions=max(2, decisions // 3)))
        assert out1.interrupted and not out1.proven
        assert os.path.exists(path)

        # Resume on a brand-new solver from the file alone.
        s2, x2 = _solver()
        out2 = bin_search(s2, x2, 0, 1023,
                          checkpoint=SearchCheckpoint.load(path))
        assert out2.resumed
        assert out2.status == "optimal"
        assert out2.optimum == reference.optimum
        assert out2.proven
        # The re-certification probe loaded the optimum's model.
        assert s2.value(x2) == reference.optimum

    def test_resume_of_certified_unsat(self, tmp_path):
        s = IntSolver()
        x = s.int_var("x", 0, 7)
        s.require(x >= 5)
        s.require(x <= 2)
        path = str(tmp_path / "unsat.json")
        ck = SearchCheckpoint()
        ck.path = path
        out = bin_search(s, x, 0, 7, checkpoint=ck)
        assert not out.feasible and out.proven

        s2 = IntSolver()
        x2 = s2.int_var("x", 0, 7)
        out2 = bin_search(s2, x2, 0, 7,
                          checkpoint=SearchCheckpoint.load(path))
        # Infeasibility was certified: the resume does not probe at all.
        assert out2.resumed and out2.status == "infeasible"

    def test_range_mismatch_is_rejected(self):
        s, x = _solver()
        ck = SearchCheckpoint(lower=0, upper=99, left=0, right=50,
                              feasible=True)
        with pytest.raises(CheckpointMismatch, match="does not match"):
            bin_search(s, x, 0, 1023, checkpoint=ck)

    def test_inconsistent_checkpoint_is_detected(self):
        # A checkpoint claiming an optimum below what the constraints
        # allow must fail loudly at re-certification, not return a bogus
        # "certified" answer.
        s, x = _solver()  # requires x >= 37
        ck = SearchCheckpoint(lower=0, upper=1023, left=5, right=5,
                              feasible=True)
        with pytest.raises(CheckpointMismatch, match="inconsistent"):
            bin_search(s, x, 0, 1023, checkpoint=ck)

    def test_refuted_bounds_witness_stays_an_internal_error(self):
        # The same refutation of an optimum taken from audited bounds is
        # the program's fault, not a caller's checkpoint.
        from repro.core.optimize import ResolvedBounds

        s, x = _solver()
        with pytest.raises(ValueError, match="audited bounds witness") as exc:
            bin_search(s, x, 0, 1023, bounds=ResolvedBounds(lower=5, upper=5))
        assert not isinstance(exc.value, CheckpointMismatch)


class TestCheckpointMismatch:
    """A checkpoint recorded for another search is the caller's error:
    both solve routes refuse it the same way, and the supervised one
    never degrades to a run without it."""

    @pytest.fixture
    def mismatched(self, tmp_path):
        from repro.cli import main
        from repro.io import save_system
        from repro.workloads.scaling import ring_architecture, scaling_taskset
        from tests.test_chaos_sites import tiny_system

        small = str(tmp_path / "small.json")
        other = str(tmp_path / "other.json")
        save_system(*tiny_system(), small)
        save_system(scaling_taskset(3, 6), ring_architecture(3), other)
        ck = str(tmp_path / "ck.json")
        assert main(["solve", small, "--objective", "trt:ring",
                     "--checkpoint", ck]) == 0
        return other, ck

    @pytest.mark.parametrize("extra", [[], ["--budget", "60"]])
    def test_cli_resume_exits_1_on_both_routes(self, mismatched, extra):
        from repro.cli import main

        other, ck = mismatched
        with pytest.raises(SystemExit) as exc:
            main(["solve", other, "--objective", "trt:ring",
                  "--checkpoint", ck, "--resume", *extra])
        # SystemExit with a message exits 1.
        assert isinstance(exc.value.code, str)
        assert exc.value.code.startswith(
            "cannot resume: checkpoint range [100, 220] does not match "
            "this search's"
        ), exc.value.code

    @pytest.mark.parametrize("extra", [[], ["--budget", "60"]])
    def test_refuted_optimum_exits_1_on_both_routes(self, tmp_path, extra):
        from repro.cli import main
        from repro.io import save_system
        from tests.test_chaos_sites import tiny_system

        system = str(tmp_path / "system.json")
        save_system(*tiny_system(), system)
        ck = str(tmp_path / "ck.json")
        assert main(["solve", system, "--objective", "trt:ring",
                     "--checkpoint", ck]) == 0
        forged = SearchCheckpoint.load(ck)
        assert forged.right == 160
        forged.left = forged.right = 100
        forged.save()
        forged.close()
        with pytest.raises(SystemExit) as exc:
            main(["solve", system, "--objective", "trt:ring",
                  "--checkpoint", ck, "--resume", *extra])
        assert isinstance(exc.value.code, str)
        assert exc.value.code.startswith(
            "cannot resume: recorded state is inconsistent with the "
            "constraints: checkpoint optimum 100"
        ), exc.value.code

    def test_supervisor_reraises_instead_of_degrading(self, mismatched):
        from repro.core.objectives import objective_from_spec
        from repro.io import load_system
        from repro.robust import SolveSupervisor

        other, ck = mismatched
        tasks, arch = load_system(other)
        sup = SolveSupervisor(tasks, arch, request=SolveRequest(
            objective=objective_from_spec("trt:ring"),
            budget=Budget(wall_seconds=60),
            checkpoint=SearchCheckpoint.resume(ck),
        ))
        with pytest.raises(CheckpointMismatch):
            sup.solve()


class TestRetiredProbeKeys:
    """A resume rebuilds every recorded probe as a ``ProbeLog``: a probe
    key it does not know is an error, never silently dropped."""

    def test_other_unknown_probe_keys_still_fail(self):
        s, x = _solver()
        probe = {"lo": 0, "hi": 1023, "sat": True, "cost": 40,
                 "seconds": 0.0, "conflicts": 0, "decisions": 0}
        ck = SearchCheckpoint(lower=0, upper=1023, left=37, right=40,
                              feasible=True,
                              probes=[probe, dict(probe, bogus=1)])
        with pytest.raises(TypeError, match="bogus"):
            bin_search(s, x, 0, 1023, checkpoint=ck)


class TestAllocatorResume:
    def _system(self):
        from repro.model import (
            TOKEN_RING,
            Architecture,
            Ecu,
            Medium,
            Message,
            Task,
            TaskSet,
        )

        arch = Architecture(
            ecus=[Ecu("p0"), Ecu("p1")],
            media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                          bit_rate=1_000_000, frame_overhead_bits=0,
                          min_slot=50, slot_overhead=10)],
        )
        tasks = TaskSet([
            Task("a", 2000, {"p0": 400, "p1": 400}, 2000,
                 messages=(Message("b", 100, 1000),),
                 separated_from=frozenset({"b"})),
            Task("b", 2000, {"p0": 400, "p1": 400}, 2000),
        ])
        return tasks, arch

    def test_interrupted_allocation_resumes_to_same_optimum(self, tmp_path):
        from repro.core import Allocator, MinimizeTRT

        tasks, arch = self._system()
        reference = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
        assert reference.proven

        # Find a budget that interrupts *between* the initial SOLVE and
        # the certified optimum, so there is real state to resume.  The
        # reference run's probe log tells us the decision window: any
        # budget past the initial probe but short of the full search
        # starves mid-interval (decisions are deterministic, but keep
        # the bracketing ladder as a fallback for engine changes).
        initial = reference.outcome.probes[0].decisions
        total = sum(p.decisions for p in reference.outcome.probes)
        ladder = [initial + max((total - initial) // 2, 1)]
        ladder += [x for x in (40, 80, 160, 320, 640, 1280, 2560)
                   if x not in ladder]
        path = str(tmp_path / "alloc.json")
        starved = None
        for max_decisions in ladder:
            if os.path.exists(path):
                os.remove(path)
            starved = Allocator(tasks, arch).minimize(
                MinimizeTRT("ring"),
                request=SolveRequest(
                    budget=Budget(max_decisions=max_decisions),
                    checkpoint=path,
                ),
            )
            if starved.outcome.feasible and not starved.proven:
                break
        if not (starved.outcome.feasible and not starved.proven):
            pytest.skip("could not starve the search mid-interval here")
        assert os.path.exists(path)

        resumed = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"), request=SolveRequest(checkpoint=path)
        )
        assert resumed.proven
        assert resumed.cost == reference.cost
        assert resumed.outcome.resumed
        assert resumed.verified  # independent analysis still passes

    def test_checkpoint_payload_preserves_best_allocation(self, tmp_path):
        # Even when the *resumed* run is interrupted before probing, the
        # checkpoint payload hands back the best allocation found so far.
        from repro.core import Allocator, MinimizeTRT

        tasks, arch = self._system()
        path = str(tmp_path / "alloc.json")
        first = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"),
            request=SolveRequest(
                budget=Budget(max_decisions=200), checkpoint=path),
        )
        if first.allocation is None:
            pytest.skip("budget too small to find any model on this host")
        assert SearchCheckpoint.load(path).payload is not None
        resumed = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"),
            request=SolveRequest(
                budget=Budget(max_decisions=1), checkpoint=path),
        )
        assert resumed.allocation is not None


class TestCanonicalBlob:
    """The normalization the fabric's job keys hash (see
    ``repro.fabric.jobs.job_key``)."""

    def test_tuples_and_lists_blob_identically(self):
        # Stored parameters round-trip through JSON, which rewrites
        # tuples as lists; the content address must not care.
        assert canonical_blob([(1, 2), ("a", 3)]) == \
            canonical_blob([[1, 2], ["a", 3]])
        assert canonical_blob([{"k": (1, 2)}]) == \
            canonical_blob([{"k": [1, 2]}])

    def test_dict_key_order_does_not_matter(self):
        assert canonical_blob({"b": 1, "a": 2}) == \
            canonical_blob({"a": 2, "b": 1})

    def test_different_values_still_differ(self):
        assert canonical_blob([(1, 2)]) != canonical_blob([(2, 1)])

    def test_json_round_trip_is_invisible(self):
        params = [("cellA", 1), ("cellB", {"x": (2, 3)})]
        back = json.loads(json.dumps(params))
        assert canonical_blob(back) == canonical_blob(params)

    def test_unserializable_values_fall_back_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "Opaque()"

        assert canonical_blob([Opaque()]) == b"[Opaque()]"


class TestRecordCheckpoint:
    """A checkpoint file is one framed record per save; a load folds the
    intact ones."""

    def _interrupted(self, tmp_path):
        """A budget-interrupted search's checkpoint: its path and bytes."""
        path = str(tmp_path / "search.json")
        ck = SearchCheckpoint()
        ck.path = path
        s1, x1 = _solver()
        out = bin_search(s1, x1, 0, 1023, checkpoint=ck,
                         budget=Budget(max_decisions=90))
        assert out.interrupted and not out.proven
        with open(path, "rb") as fh:
            return path, fh.read()

    def test_torn_last_record_resumes_to_straight_envelope(self, tmp_path):
        s_ref, x_ref = _solver()
        straight = bin_search(s_ref, x_ref, 0, 1023)
        envelope = (straight.optimum, straight.proven, straight.status)
        path, blob = self._interrupted(tmp_path)
        scan = scan_file(path, _FORMAT)
        assert len(scan.records) >= 3 and not scan.damaged
        full = SearchCheckpoint.load(path)
        # Frames are <u32 length> <u32 crc32> payload: find the last one.
        last = pos = len(MAGIC)
        while pos < len(blob):
            last = pos
            pos += 8 + struct.unpack_from("<I", blob, pos)[0]
        for cut in range(last, len(blob)):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            back = SearchCheckpoint.load(path)
            assert back.generation == full.generation - 1
            assert full.probes[:len(back.probes)] == back.probes
            assert len(full.probes) - len(back.probes) <= 1
            s2, x2 = _solver()
            out = bin_search(s2, x2, 0, 1023, checkpoint=back)
            assert (out.optimum, out.proven, out.status) == envelope
            # The resumed writer cut the torn tail before appending.
            assert not scan_file(path, _FORMAT).damaged

    def test_flipped_byte_folds_only_earlier_records(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = SearchCheckpoint(lower=0, upper=9, left=0, right=9,
                              feasible=True)
        ends = []
        for left in range(5):
            ck.left = left
            ck.save(path)
            ends.append(os.path.getsize(path))
        ck.close()
        with open(path, "rb") as fh:
            blob = fh.read()
        starts = [len(MAGIC)] + ends[:-1]
        for k, start in enumerate(starts):
            for pos in (start, start + 5, ends[k] - 1):  # frame, payload
                bad = bytearray(blob)
                bad[pos] ^= 0x40
                with open(path, "wb") as fh:
                    fh.write(bytes(bad))
                back = SearchCheckpoint.load(path)
                assert back.generation == k
                assert back.load_reports
                if k:
                    assert back.left == k - 1
                else:
                    assert not back.started

    def test_damaged_header_raises_typed_and_quarantines(self, tmp_path):
        path = str(tmp_path / "ck.json")
        SearchCheckpoint(lower=0, upper=9).save(path)
        with open(path, "r+b") as fh:
            fh.write(b"X")
        with pytest.raises(CheckpointCorrupt) as ei:
            SearchCheckpoint.load(path)
        assert ei.value.reports[0].quarantined_to == f"{path}.quarantined"
        assert os.listdir(tmp_path) == ["ck.json.quarantined"]

    def test_header_cut_short_holds_nothing_to_resume(self, tmp_path):
        path = str(tmp_path / "ck.json")
        for cut in range(len(MAGIC)):
            with open(path, "wb") as fh:
                fh.write(MAGIC[:cut])
            back = SearchCheckpoint.load(path)
            assert not back.started and back.generation == 0

    def test_saves_append_only_what_changed(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = SearchCheckpoint(lower=0, upper=9, left=0, right=9,
                              feasible=True, payload={"best": 9})
        ck.save(path)
        ck.probes = [{"n": 1}]
        ck.left = 3
        ck.save(path)
        ck.close()
        first, second = scan_file(path, _FORMAT).records
        assert first["payload"] == {"best": 9} and first["probes"] == []
        assert second == {"generation": 2, "left": 3, "probes": [{"n": 1}]}


def _write_pre_record(path, payload, generation):
    """Write ``payload`` as releases before record checkpoints did: one
    JSON document under a SHA-256 integrity envelope (older generations
    were the same documents renamed to ``.g1``/``.g2``)."""
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()
    doc = dict(payload, integrity={
        "schema": 1, "generation": generation,
        "sha256": hashlib.sha256(blob).hexdigest(),
    })
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


class TestCompatibilityHorizon:
    """Only ``REPRO-CHECKPOINT v1`` record files resume.  A JSON
    checkpoint of a release before record files is quarantined like any
    damaged header, and its ``.g1`` generation is never read."""

    @pytest.fixture
    def pre_record(self, tmp_path):
        """A system, and a JSON checkpoint (plus ``.g1``) holding a real
        search state for it."""
        from repro.cli import main
        from repro.io import save_system
        from tests.test_chaos_sites import tiny_system

        system = str(tmp_path / "system.json")
        save_system(*tiny_system(), system)
        records = str(tmp_path / "records.ckpt")
        assert main(["solve", system, "--objective", "trt:ring",
                     "--checkpoint", records]) == 0
        payload = SearchCheckpoint.load(records).to_dict()
        os.remove(records)
        path = str(tmp_path / "ck.json")
        _write_pre_record(path, payload, 2)
        _write_pre_record(f"{path}.g1", payload, 1)
        with open(f"{path}.g1", "rb") as fh:
            g1 = fh.read()
        return system, path, g1

    @staticmethod
    def _opened(monkeypatch):
        import builtins

        seen, real_open = [], builtins.open

        def recording_open(file, *args, **kwargs):
            seen.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        return seen

    @staticmethod
    def _assert_quarantined(path, g1, opened):
        assert sorted(os.listdir(os.path.dirname(path))) == [
            "ck.json.g1", "ck.json.quarantined", "system.json"]
        assert f"{path}.g1" not in opened
        with open(f"{path}.g1", "rb") as fh:
            assert fh.read() == g1

    def test_allocator_raises_typed_and_quarantines(self, pre_record,
                                                    monkeypatch):
        from repro.core import Allocator, MinimizeTRT
        from repro.io import load_system

        system, path, g1 = pre_record
        tasks, arch = load_system(system)
        opened = self._opened(monkeypatch)
        with pytest.raises(CheckpointCorrupt) as exc:
            Allocator(tasks, arch).minimize(
                MinimizeTRT("ring"), request=SolveRequest(checkpoint=path))
        assert exc.value.path == path
        assert [r.quarantined_to for r in exc.value.reports] == [
            f"{path}.quarantined"]
        self._assert_quarantined(path, g1, opened)

    @pytest.mark.parametrize("extra", [[], ["--budget", "60"]])
    def test_cli_resume_exits_1(self, pre_record, monkeypatch, extra):
        from repro.cli import main

        system, path, g1 = pre_record
        opened = self._opened(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["solve", system, "--objective", "trt:ring",
                  "--checkpoint", path, "--resume", *extra])
        # SystemExit with a message exits 1.
        assert isinstance(exc.value.code, str)
        assert exc.value.code.startswith(f"cannot resume from {path}: ")
        self._assert_quarantined(path, g1, opened)

    @pytest.mark.parametrize("extra", [[], ["--budget", "60"]])
    def test_cli_fresh_run_replaces_the_json_file(self, pre_record, extra):
        from repro.cli import main

        system, path, g1 = pre_record
        assert main(["solve", system, "--objective", "trt:ring",
                     "--checkpoint", path, *extra]) == 0
        with open(path, "rb") as fh:
            assert fh.read(len(MAGIC)) == MAGIC
        assert SearchCheckpoint.load(path).finished
        with open(f"{path}.g1", "rb") as fh:
            assert fh.read() == g1

    def test_resume_decides_on_the_file_alone(self, pre_record):
        _, path, g1 = pre_record
        os.remove(path)
        # Only .g1 is left: nothing to resume, and .g1 stays as it is.
        fresh = SearchCheckpoint.resume(path)
        assert (fresh.path, fresh.generation, fresh.started) == (
            path, 0, False)
        with open(f"{path}.g1", "rb") as fh:
            assert fh.read() == g1

    def test_envelope_free_json_is_quarantined(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = SearchCheckpoint(lower=0, upper=9, left=2, right=5,
                              feasible=True)
        with open(path, "w") as fh:
            json.dump(ck.to_dict(), fh)  # the oldest format: no envelope
        with pytest.raises(CheckpointCorrupt):
            SearchCheckpoint.load(path)
        assert os.listdir(tmp_path) == ["ck.json.quarantined"]

    def test_short_foreign_header_is_quarantined(self, tmp_path):
        # Shorter than the magic line but not a prefix of it: damaged,
        # unlike a header cut short.
        path = str(tmp_path / "ck.json")
        with open(path, "wb") as fh:
            fh.write(b"{}")
        with pytest.raises(CheckpointCorrupt):
            SearchCheckpoint.load(path)
        assert os.listdir(tmp_path) == ["ck.json.quarantined"]
