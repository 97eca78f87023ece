"""The chaos harness (repro.chaos) and the paths it hardens.

Covers, in order:

1. schedule construction -- determinism, validation, profiles, and a
   static check that every registered site and profile entry names a
   live call site under ``src/repro``;
2. fault-site semantics -- chaos_point / chaos_data, cross-process
   counting, the event log;
3. checkpoint generations -- rotation, integrity envelope, fallback,
   quarantine, the typed CheckpointCorrupt;
4. proof artifacts -- length-prefixed records, torn-tail detection,
   resume repair, quarantine (the append fault matrix shared with the
   fabric store lives in tests/test_records.py);
5. atomic_write_json litter-freedom (failure leaves no temp files and
   the previous file intact);
6. legacy solve kwargs raising TypeError with a migration hint;
7. the supervisor / CLI degradation paths under injected faults.

The end-to-end randomized sweep lives in tests/test_chaos_torture.py.
"""

from __future__ import annotations

import ast
import json
import multiprocessing
import os
import pathlib

import pytest

from repro.chaos import (
    CHAOS_EXIT_CODE,
    KINDS,
    PROFILES,
    SITE_KINDS,
    SITES,
    ChaosFault,
    ChaosIOError,
    ChaosSchedule,
    active,
    chaos_data,
    chaos_point,
    current,
)
from repro.core import Allocator, MinimizeTRT, SolveRequest
from repro.io import system_from_dict
from repro.model import (
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
)
from repro.robust import SearchCheckpoint
from repro.robust.checkpoint import (
    CheckpointCorrupt,
    atomic_write_json,
    load_generations,
    save_generations,
)


def tiny_system():
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


@pytest.fixture(scope="module")
def tiny():
    return tiny_system()


@pytest.fixture(scope="module")
def tiny_optimum(tiny):
    tasks, arch = tiny
    res = Allocator(tasks, arch).minimize(
        request=SolveRequest(objective=MinimizeTRT("ring"))
    )
    assert res.proven
    return res.cost


# ---------------------------------------------------------------------------
# 1. Schedule construction
# ---------------------------------------------------------------------------


class TestScheduleConstruction:
    def test_from_seed_is_deterministic(self, tmp_path):
        a = ChaosSchedule.from_seed(42, str(tmp_path / "a"))
        b = ChaosSchedule.from_seed(42, str(tmp_path / "b"))
        assert a.faults == b.faults
        assert a.label == "seed:42"

    def test_from_seed_respects_site_kinds(self, tmp_path):
        for seed in range(50):
            sched = ChaosSchedule.from_seed(seed, str(tmp_path / str(seed)))
            for f in sched.faults:
                assert f.site in SITES
                assert f.kind in SITE_KINDS[f.site]

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos site"):
            ChaosFault("solver.nonsense", 1, "crash")

    def test_kind_not_allowed_at_site_rejected(self):
        # The coordinating parent must never chaos-crash: checkpoint
        # writes happen in the parent, so "crash" is invalid there.
        with pytest.raises(ValueError, match="not allowed"):
            ChaosFault("checkpoint.write", 1, "crash")

    def test_trigger_must_be_positive(self):
        with pytest.raises(ValueError, match="trigger and repeat"):
            ChaosFault("fabric.lease.renew", 0, "crash")

    def test_profiles_are_all_valid(self, tmp_path):
        for name in PROFILES:
            sched = ChaosSchedule.from_profile(name, str(tmp_path / name))
            assert sched.faults
            assert sched.label == f"profile:{name}"

    def test_unknown_profile_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            ChaosSchedule.from_profile("nonsense", str(tmp_path))

    @pytest.mark.parametrize("name", ["worker-carnage", "ipc-flake"])
    def test_removed_engine_profile_raises(self, name, tmp_path):
        assert name not in PROFILES
        with pytest.raises(ValueError, match="unknown chaos profile"):
            ChaosSchedule.from_profile(name, str(tmp_path))

    def test_sweep_cell_takes_process_and_cell_faults(self):
        assert "sweep.cell" in SITES
        assert SITE_KINDS["sweep.cell"] == ("crash", "hang", "io-error")
        with pytest.raises(ValueError, match="not allowed"):
            ChaosFault("sweep.cell", 1, "torn-write")

    def test_all_kinds_documented(self):
        for site, kinds in SITE_KINDS.items():
            assert site in SITES
            for kind in kinds:
                assert kind in KINDS

    def test_every_site_and_profile_entry_is_live(self):
        # A site whose call was deleted would linger in SITES and the
        # profiles, drawing seeded faults that can never fire.
        called = _called_sites()
        assert sorted(set(SITES) - called) == []
        dead = sorted((name, entry[0]) for name, spec in PROFILES.items()
                      for entry in spec if entry[0] not in called)
        assert dead == []


_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
_SITE_CALLS = {"chaos_point", "chaos_data", "chaos_flag"}


def _called_sites() -> set[str]:
    """Site names passed literally to a fault-site call under src/repro."""
    found = set()
    for path in _SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            arg = node.args[0]
            if (name in _SITE_CALLS and isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)):
                found.add(arg.value)
    return found


# ---------------------------------------------------------------------------
# 2. Fault-site semantics
# ---------------------------------------------------------------------------


def _sched(tmp_path, *faults, hang_seconds=0.01):
    return ChaosSchedule(
        str(tmp_path / "chaos"),
        [ChaosFault(*f) for f in faults],
        hang_seconds=hang_seconds,
    )


class TestFaultSites:
    def test_points_are_noops_without_schedule(self):
        assert current() is None
        chaos_point("supervisor.stage")
        assert chaos_data("checkpoint.write", b"xy") == (b"xy", None)

    def test_unscheduled_site_skips_counter_file(self, tmp_path):
        sched = _sched(tmp_path, ("checkpoint.fsync", 1, "io-error"))
        with active(sched):
            chaos_point("supervisor.stage")  # not in the schedule
        assert sched.executions_of("supervisor.stage") == 0
        assert not os.path.exists(sched._counter_path("supervisor.stage"))

    def test_io_error_fires_on_trigger_only(self, tmp_path):
        sched = _sched(tmp_path, ("supervisor.stage", 2, "io-error"))
        with active(sched):
            chaos_point("supervisor.stage")  # execution 1: clean
            with pytest.raises(ChaosIOError):
                chaos_point("supervisor.stage")  # execution 2: fires
            chaos_point("supervisor.stage")  # execution 3: clean again
        assert sched.executions_of("supervisor.stage") == 3

    def test_chaos_io_error_is_an_oserror(self):
        # Hardened code survives injection through ordinary error
        # handling; the harness must not need special-casing.
        assert issubclass(ChaosIOError, OSError)

    def test_counts_shared_across_schedule_copies(self, tmp_path):
        # Two objects over one state_dir model the parent and a worker
        # holding pickled copies of the same schedule.
        d = tmp_path / "shared"
        fault = ChaosFault("fabric.lease.renew", 2, "io-error")
        a = ChaosSchedule(str(d), [fault])
        b = ChaosSchedule(str(d), [fault])
        assert a.hit("fabric.lease.renew") is None  # global execution 1
        assert b.hit("fabric.lease.renew") == "io-error"  # execution 2
        assert a.executions_of("fabric.lease.renew") == 2

    def test_repeat_covers_a_window(self, tmp_path):
        sched = _sched(tmp_path, ("fabric.lease.renew", 2, "io-error", 2))
        hits = [sched.hit("fabric.lease.renew") for _ in range(4)]
        assert hits == [None, "io-error", "io-error", None]

    def test_event_log_records_injections(self, tmp_path):
        sched = _sched(tmp_path, ("supervisor.stage", 1, "io-error"))
        with active(sched):
            with pytest.raises(ChaosIOError):
                chaos_point("supervisor.stage")
        events = sched.events()
        assert len(events) == 1
        assert events[0]["site"] == "supervisor.stage"
        assert events[0]["kind"] == "io-error"
        assert events[0]["execution"] == 1
        assert events[0]["pid"] == os.getpid()

    def test_event_log_torn_last_line_is_skipped(self, tmp_path):
        # A worker killed mid-append tears at most the last line; the
        # log must still read back, like every other JSONL log.
        sched = _sched(tmp_path, ("supervisor.stage", 1, "io-error"))
        with active(sched):
            with pytest.raises(ChaosIOError):
                chaos_point("supervisor.stage")
        with open(sched.event_log_path, "a") as fh:
            fh.write('{"site": "supervisor.stage", "ki')
        events = sched.events()
        assert [(e["site"], e["execution"]) for e in events] == [
            ("supervisor.stage", 1)
        ]

    def test_crash_kills_the_process(self, tmp_path):
        sched = _sched(tmp_path, ("fabric.lease.renew", 1, "crash"))

        def victim():
            with active(sched):
                chaos_point("fabric.lease.renew")

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=victim)
        proc.start()
        proc.join(30)
        assert proc.exitcode == CHAOS_EXIT_CODE

    def test_data_torn_write_halves_payload(self, tmp_path):
        sched = _sched(tmp_path, ("checkpoint.write", 1, "torn-write"))
        with active(sched):
            data, kind = chaos_data("checkpoint.write", b"abcdefgh")
        assert (data, kind) == (b"abcd", "torn-write")

    def test_data_corrupt_flips_one_byte(self, tmp_path):
        sched = _sched(tmp_path, ("checkpoint.write", 1, "corrupt-bytes"))
        with active(sched):
            data, kind = chaos_data("checkpoint.write", b"abcdefgh")
        assert kind == "corrupt-bytes"
        assert len(data) == 8
        assert sum(1 for x, y in zip(data, b"abcdefgh") if x != y) == 1

    def test_active_none_is_noop(self):
        with active(None):
            assert current() is None

    def test_active_nests(self, tmp_path):
        outer = _sched(tmp_path, ("supervisor.stage", 1, "io-error"))
        inner = ChaosSchedule(str(tmp_path / "inner"), [])
        with active(outer):
            assert current() is outer
            with active(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None


# ---------------------------------------------------------------------------
# 3. Checkpoint generations
# ---------------------------------------------------------------------------


class TestCheckpointGenerations:
    def test_first_save_writes_single_file(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_generations(path, {"kind": "x", "n": 1}, 1)
        assert sorted(os.listdir(tmp_path)) == ["ck.json"]

    def test_saves_rotate_and_cap_generations(self, tmp_path):
        path = str(tmp_path / "ck.json")
        for gen in range(1, 6):
            save_generations(path, {"n": gen}, gen)
        assert sorted(os.listdir(tmp_path)) == [
            "ck.json", "ck.json.g1", "ck.json.g2",
        ]
        payload, gen, reports = load_generations(path)
        assert (payload["n"], gen, reports) == (5, 5, [])

    def test_fallback_to_older_generation(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_generations(path, {"n": 1}, 1)
        save_generations(path, {"n": 2}, 2)
        with open(path, "w") as fh:
            fh.write('{"torn')  # newest damaged
        payload, gen, reports = load_generations(path)
        assert (payload["n"], gen) == (1, 1)
        assert len(reports) == 1
        assert "JSON" in reports[0].reason
        assert reports[0].quarantined_to == f"{path}.quarantined"
        assert os.path.exists(f"{path}.quarantined")

    def test_bit_flip_fails_the_sha256(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_generations(path, {"n": 7}, 1)
        doc = json.loads(open(path).read())
        doc["n"] = 8  # valid JSON, silently altered payload
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(CheckpointCorrupt, match="sha256 mismatch"):
            load_generations(path)

    def test_all_generations_corrupt_raises_typed(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_generations(path, {"n": 1}, 1)
        save_generations(path, {"n": 2}, 2)
        for cand in (path, f"{path}.g1"):
            with open(cand, "wb") as fh:
                fh.write(b"\x00garbage")
        with pytest.raises(CheckpointCorrupt) as ei:
            load_generations(path)
        exc = ei.value
        assert isinstance(exc, ValueError)  # legacy guards keep working
        assert exc.path == path
        assert len(exc.reports) == 2
        assert all(r.quarantined_to for r in exc.reports)

    def test_missing_checkpoint_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_generations(str(tmp_path / "absent.json"))

    def test_legacy_envelope_free_file_still_loads(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = SearchCheckpoint(lower=0, upper=9, left=2, right=5,
                              feasible=True)
        with open(path, "w") as fh:
            json.dump(ck.to_dict(), fh)  # pre-envelope format
        back = SearchCheckpoint.load(path)
        assert (back.left, back.right) == (2, 5)
        assert back.generation == 0

    def test_search_checkpoint_survives_newest_corruption(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = SearchCheckpoint(lower=0, upper=9)
        ck.feasible = True
        ck.left, ck.right = 0, 9
        ck.save(path)
        ck.left = 3
        ck.save(path)
        with open(path, "wb") as fh:
            fh.write(b"not json at all")
        back = SearchCheckpoint.load(path)
        assert back.left == 0  # the older but intact generation
        assert back.generation == 1
        assert len(back.load_reports) == 1
        # A resumed save keeps the generation counter monotonic.
        back.save(path)
        assert SearchCheckpoint.load(path).generation == 2

    def test_chaos_torn_checkpoint_write_falls_back(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_generations(path, {"n": 1}, 1)
        sched = _sched(tmp_path, ("checkpoint.write", 1, "torn-write"))
        with active(sched):
            save_generations(path, {"n": 2}, 2)  # lands damaged
        payload, gen, reports = load_generations(path)
        assert (payload["n"], gen) == (1, 1)
        assert len(reports) == 1

    def test_chaos_fsync_error_keeps_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_generations(path, {"n": 1}, 1)
        sched = _sched(tmp_path, ("checkpoint.fsync", 1, "io-error"))
        with active(sched):
            with pytest.raises(OSError):
                save_generations(path, {"n": 2}, 2)
        # Failed save: no temp litter, the rotated generation carries on.
        assert not [p for p in os.listdir(tmp_path) if ".tmp" in p]
        payload, _gen, _reports = load_generations(path)
        assert payload["n"] == 1


# ---------------------------------------------------------------------------
# 4. Proof artifacts
# ---------------------------------------------------------------------------


class TestProofArtifacts:
    LINES = [f"step {i} 1 2 -3 0" for i in range(10)]

    def _spool(self, path, lines):
        from repro.certify import ProofSpool

        with ProofSpool(str(path)) as sp:
            sp.append(lines)
        return str(path)

    def test_roundtrip(self, tmp_path):
        from repro.certify import load_proof, scan_artifact

        path = self._spool(tmp_path / "p.proof", self.LINES)
        assert load_proof(path) == self.LINES
        scan = scan_artifact(path)
        assert (scan.records, scan.damaged) == (10, False)

    def test_truncated_tail_is_detected_not_misread(self, tmp_path):
        from repro.certify import (
            ProofArtifactError,
            load_proof,
            scan_artifact,
        )

        path = self._spool(tmp_path / "p.proof", self.LINES)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)  # mid-record: the classic torn tail
        scan = scan_artifact(path)
        assert scan.damaged and scan.records == 9
        with pytest.raises(ProofArtifactError, match="damaged after 9"):
            load_proof(path)
        assert load_proof(path, strict=False) == self.LINES[:9]

    def test_corrupt_payload_is_detected(self, tmp_path):
        from repro.certify import ProofArtifactError, load_proof

        path = self._spool(tmp_path / "p.proof", self.LINES)
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) - 2)
            fh.write(b"\xff")
        with pytest.raises(ProofArtifactError, match="CRC mismatch"):
            load_proof(path)

    def test_missing_header_is_rejected(self, tmp_path):
        from repro.certify import ProofArtifactError, load_proof

        path = tmp_path / "p.proof"
        path.write_bytes(b"not a proof artifact")
        with pytest.raises(ProofArtifactError, match="header"):
            load_proof(str(path))

    def test_resume_repairs_torn_tail(self, tmp_path):
        from repro.certify import ProofSpool, load_proof

        path = self._spool(tmp_path / "p.proof", self.LINES)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        with ProofSpool(path, fresh=False) as sp:
            assert sp.repairs == 1
            assert sp.records == 9
            assert sp.recovered_tail_bytes > 0
            sp.append(["tail-a", "tail-b"])
        assert load_proof(path) == self.LINES[:9] + ["tail-a", "tail-b"]

    def test_fresh_spool_quarantines_damaged_leftover(self, tmp_path):
        from repro.certify import ProofSpool, load_proof

        path = self._spool(tmp_path / "p.proof", self.LINES)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        with ProofSpool(path, fresh=True) as sp:
            assert sp.quarantined_from == f"{path}.quarantined"
            sp.append(["fresh"])
        assert load_proof(path) == ["fresh"]
        assert os.path.exists(f"{path}.quarantined")

    def test_artifact_failure_condemns_certificate_not_solve(self, tiny):
        # An unwritable proof artifact must fail the certificate
        # honestly (all_verified False) while the solve still finishes
        # with the in-memory checker verdicts intact.
        tasks, arch = tiny
        sched_dir = "unused"
        del sched_dir
        res = Allocator(tasks, arch).minimize(
            request=SolveRequest(
                objective=MinimizeTRT("ring"), certify=True,
                proof_log="/nonexistent-dir/p.proof",
            )
        )
        assert res.proven
        cert = res.certificate
        assert cert is not None and not cert.all_verified
        assert cert.proof_artifact_error

    def test_proof_log_written_and_verifiable(self, tiny, tmp_path):
        from repro.certify import load_proof

        tasks, arch = tiny
        path = str(tmp_path / "run.proof")
        res = Allocator(tasks, arch).minimize(
            request=SolveRequest(
                objective=MinimizeTRT("ring"), certify=True, proof_log=path,
            )
        )
        cert = res.certificate
        assert cert.all_verified
        assert cert.proof_artifact == path
        lines = load_proof(path)
        assert lines and any("0" in ln for ln in lines)
        doc = cert.to_dict()
        assert doc["proof_artifact"] == path
        assert doc["proof_artifact_ok"] is True


# ---------------------------------------------------------------------------
# 5. atomic_write_json leaves no litter on failure
# ---------------------------------------------------------------------------


class TestAtomicWriteLitter:
    def test_unserializable_payload_creates_nothing(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text('{"previous": true}')
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": {1, 2, 3}})
        assert sorted(os.listdir(tmp_path)) == ["out.json"]
        assert json.loads(path.read_text()) == {"previous": True}

    def test_failed_fsync_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text('{"previous": true}')

        def boom(fd):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError, match="disk on fire"):
            atomic_write_json(str(path), {"n": 1})
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == ["out.json"]
        assert json.loads(path.read_text()) == {"previous": True}

    def test_failed_write_removes_temp_file(self, tmp_path, monkeypatch):
        import repro.robust.checkpoint as ckmod

        path = tmp_path / "out.json"
        real_open = open

        def flaky_open(name, *a, **kw):
            fh = real_open(name, *a, **kw)
            if str(name).startswith(str(path) + ".tmp"):
                def bad_write(data):
                    raise OSError("ENOSPC")
                fh.write = bad_write
            return fh

        monkeypatch.setattr(ckmod, "open", flaky_open, raising=False)
        with pytest.raises(OSError, match="ENOSPC"):
            atomic_write_json(str(path), {"n": 1})
        monkeypatch.undo()
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# 6. Legacy kwargs raise TypeError with a migration hint
# ---------------------------------------------------------------------------


class TestLegacyKwargRemoval:
    def test_warm_fields_removed_from_request(self):
        with pytest.raises(TypeError, match="HintBoundsProvider"):
            SolveRequest(warm_start=999)
        with pytest.raises(TypeError, match="docs/BOUNDS.md"):
            SolveRequest(warm_start=999,
                         warm_allocation={"task_ecu": {}})

    def test_legacy_solve_kwargs_raise_with_migration_hint(self, tiny):
        tasks, arch = tiny
        with pytest.raises(TypeError, match="SolveRequest"):
            Allocator(tasks, arch).minimize(
                MinimizeTRT("ring"), time_limit=300.0
            )
        with pytest.raises(TypeError, match="SolveRequest"):
            Allocator(tasks, arch).find_feasible(verify=False)

    def test_supervisor_legacy_kwargs_raise(self, tiny):
        from repro.robust import Budget, SolveSupervisor

        tasks, arch = tiny
        with pytest.raises(TypeError, match="SolveSupervisor"):
            SolveSupervisor(tasks, arch, MinimizeTRT("ring"),
                            budget=Budget(wall_seconds=300.0))

    def test_portfolio_legacy_kwargs_raise(self, tiny):
        from repro.core.portfolio import solve_portfolio

        tasks, arch = tiny
        with pytest.raises(TypeError, match="solve_portfolio"):
            solve_portfolio(tasks, arch, MinimizeTRT("ring"), retries=0)

    def test_hint_names_the_first_offending_kwarg(self):
        from repro.core.api import reject_legacy

        with pytest.raises(TypeError, match=r"budget=\.\.\."):
            reject_legacy("caller", {"budget": 1, "verify": False})
        # Empty legacy dict: a no-op, the modern call path.
        reject_legacy("caller", {})


# ---------------------------------------------------------------------------
# 7. Degradation paths
# ---------------------------------------------------------------------------


class TestDegradationPaths:
    def test_supervisor_escalates_past_failing_stage(self, tiny,
                                                     tiny_optimum, tmp_path):
        from repro.robust import SolveSupervisor

        sched = _sched(tmp_path, ("supervisor.stage", 1, "io-error"))
        sup = SolveSupervisor(
            tiny[0], tiny[1],
            request=SolveRequest(objective=MinimizeTRT("ring"), chaos=sched),
        ).solve()
        assert sup.stages[0].status == "failed"
        assert "ChaosIOError" in sup.stages[0].detail
        assert sup.status == "optimal"
        assert sup.cost == tiny_optimum
        assert len(sched.events()) == 1

    def test_cli_chaos_flags_round_trip(self, tiny, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_system

        sys_path = tmp_path / "sys.json"
        save_system(tiny[0], tiny[1], sys_path)
        chaos_dir = tmp_path / "chaos"
        rc = main([
            "solve", str(sys_path), "--objective", "trt:ring",
            "--chaos-profile", "checkpoint-torture",
            "--chaos-dir", str(chaos_dir),
            "--checkpoint", str(tmp_path / "ck.json"),
            "-o", str(tmp_path / "out.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "chaos: profile:checkpoint-torture" in captured.err
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["proven"] is True

    def test_cli_rejects_unknown_profile(self, tiny, tmp_path):
        from repro.cli import main
        from repro.io import save_system

        sys_path = tmp_path / "sys.json"
        save_system(tiny[0], tiny[1], sys_path)
        with pytest.raises(SystemExit, match="unknown chaos profile"):
            main(["solve", str(sys_path), "--objective", "trt:ring",
                  "--chaos-profile", "nonsense"])


def test_tiny_system_roundtrips_for_other_suites():
    # tiny_system is shared with the torture suite via import; make the
    # blob round-trip explicit so a codec change fails loudly here.
    tasks, arch = tiny_system()
    from repro.io import system_to_dict

    back_tasks, back_arch = system_from_dict(
        json.loads(json.dumps(system_to_dict(tasks, arch)))
    )
    assert back_tasks.names() == tasks.names()
