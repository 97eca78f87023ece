"""Unit tests for the resource governor (:mod:`repro.governor`).

Covers, in order:

1. config validation and the enabled/disabled distinction;
2. disk quota accounting from actual file sizes, the one-frame
   overshoot bound, and the typed :class:`DiskQuotaExceeded`;
3. eviction priority -- quarantined corpses and old checkpoint
   generations go first, then flight rotation; live checkpoints, proof
   spools and fabric segments are never touched;
4. memory watermarks -- sources, adopted objects, graduated levels,
   shrinkers, cooperative budget cancellation;
5. process-global installation (install/uninstall/governed) and the
   free-when-off module hooks;
6. chaos forcing at the ``governor.disk`` / ``governor.mem`` sites.

End-to-end exhaustion torture lives in tests/test_governor_torture.py.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro import governor as governor_mod
from repro.chaos import ChaosFault, ChaosSchedule, active
from repro.governor import (
    CATEGORIES,
    DiskQuotaExceeded,
    Governor,
    GovernorConfig,
    governed,
)
from repro.robust.budget import Budget
from repro.robust.flight import FlightRecorder, read_events


def make_governor(disk=None, mem=None, recorder=None):
    return Governor(
        GovernorConfig(disk_quota=disk, mem_watermark=mem),
        recorder=recorder,
    )


class TestConfig:
    def test_disabled_by_default(self):
        cfg = GovernorConfig()
        assert not cfg.enabled

    def test_enabled_by_either_limit(self):
        assert GovernorConfig(disk_quota=1).enabled
        assert GovernorConfig(mem_watermark=1).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            GovernorConfig(disk_quota=0)
        with pytest.raises(ValueError):
            GovernorConfig(mem_watermark=-5)

    def test_picklable(self):
        import pickle

        cfg = GovernorConfig(disk_quota=4096, mem_watermark=1 << 20)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestDiskQuota:
    def test_charge_under_quota_admits(self, tmp_path):
        gov = make_governor(disk=1000)
        path = str(tmp_path / "f.bin")
        gov.charge("checkpoint", 300, path=path)
        with open(path, "wb") as fh:
            fh.write(b"x" * 300)
        gov.charge("checkpoint", 300, path=path)

    def test_usage_never_exceeds_quota_by_more_than_one_frame(
            self, tmp_path):
        # Admission runs before the write: after any admitted write the
        # tracked usage is <= quota + that one frame, and a frame that
        # would overshoot further is rejected typed.
        quota, frame = 1000, 300
        gov = make_governor(disk=quota)
        paths = [str(tmp_path / f"f{i}.bin") for i in range(8)]
        written = 0
        for path in paths:
            try:
                gov.charge("proof", frame, path=path)
            except DiskQuotaExceeded:
                break
            with open(path, "wb") as fh:
                fh.write(b"x" * frame)
            written += frame
            assert gov.disk_used() <= quota + frame
        assert written == 900  # 4th frame would hit 1200 > 1000
        with pytest.raises(DiskQuotaExceeded):
            gov.charge("proof", frame, path=paths[4])

    def test_rejection_is_typed_enospc(self, tmp_path):
        gov = make_governor(disk=10)
        path = str(tmp_path / "f.bin")
        with open(path, "wb") as fh:
            fh.write(b"x" * 10)
        with pytest.raises(DiskQuotaExceeded) as exc_info:
            gov.charge("proof", 50, path=path)
        exc = exc_info.value
        assert isinstance(exc, OSError)
        assert exc.errno == errno.ENOSPC
        assert exc.category == "proof"
        assert exc.quota == 10
        assert gov.stats_dict()["quota_rejections"] == 1

    def test_accounting_is_self_correcting(self, tmp_path):
        # Usage comes from actual file sizes: truncating a tracked file
        # outside the governor's knowledge frees quota immediately.
        gov = make_governor(disk=100)
        path = str(tmp_path / "f.bin")
        gov.charge("checkpoint", 90, path=path)
        with open(path, "wb") as fh:
            fh.write(b"x" * 90)
        with pytest.raises(DiskQuotaExceeded):
            gov.charge("checkpoint", 90)
        os.truncate(path, 0)
        gov.charge("checkpoint", 90)

    def test_unknown_category_rejected(self):
        gov = make_governor(disk=100)
        with pytest.raises(ValueError, match="category"):
            gov.track("scratch", "/tmp/x")
        assert set(CATEGORIES) == {"checkpoint", "flight", "proof",
                                   "fabric"}


class TestEvictionPriority:
    def _checkpoint_family(self, tmp_path, live=200, quarantined=150):
        path = str(tmp_path / "ck.json")
        for name, size in ((path, live),
                           (path + ".quarantined", quarantined)):
            with open(name, "wb") as fh:
                fh.write(b"c" * size)
        return path

    def test_corpses_evicted_before_flight_rotation(self, tmp_path):
        path = self._checkpoint_family(tmp_path)
        flight = str(tmp_path / "events.jsonl")
        with open(flight, "wb") as fh:
            fh.write(b'{"event": "x"}\n' * 20)
        # A generation file of an older release is not the governor's.
        with open(path + ".g1", "wb") as fh:
            fh.write(b"c" * 150)
        gov = make_governor(disk=600)
        gov.track("checkpoint", path)
        gov.track("flight", flight)
        # 350 B of checkpoints + 300 B of flight = 650 tracked; a 100 B
        # frame needs 150 reclaimed: the quarantined corpse (150) goes;
        # the live file and the flight log survive.
        assert gov.disk_used() == 650
        gov.charge("checkpoint", 100)
        assert not os.path.exists(path + ".quarantined")
        assert os.path.exists(path + ".g1")
        assert os.path.exists(path)  # the live file survives
        assert os.path.getsize(flight) == 15 * 20
        stats = gov.stats_dict()
        assert stats["evicted_files"] == 1
        assert stats["flight_rotations"] == 0

    def test_flight_rotated_to_marker_when_corpses_insufficient(
            self, tmp_path):
        path = self._checkpoint_family(tmp_path, quarantined=10)
        flight = str(tmp_path / "events.jsonl")
        with open(flight, "wb") as fh:
            fh.write(b'{"event": "x"}\n' * 40)  # 600 B
        gov = make_governor(disk=500)
        gov.track("checkpoint", path)
        gov.track("flight", flight)
        gov.charge("flight", 60)
        events = read_events(flight)
        assert len(events) == 1
        assert events[0]["event"] == "governor.flight-rotated"
        assert events[0]["dropped_bytes"] == 600
        assert gov.stats_dict()["flight_rotations"] == 1

    def test_proof_and_fabric_never_reclaimed(self, tmp_path):
        proof = str(tmp_path / "run.proof")
        segment = str(tmp_path / "results.seg")
        for name in (proof, segment):
            with open(name, "wb") as fh:
                fh.write(b"p" * 400)
        gov = make_governor(disk=500)
        gov.track("proof", proof)
        gov.track("fabric", segment)
        with pytest.raises(DiskQuotaExceeded):
            gov.charge("proof", 400)
        # Both artifacts are byte-identical: reclaim never touched them.
        assert os.path.getsize(proof) == 400
        assert os.path.getsize(segment) == 400

    def test_reclaim_is_recorded_in_flight(self, tmp_path):
        log = str(tmp_path / "gov-events.jsonl")
        recorder = FlightRecorder(log, actor="governor")
        path = self._checkpoint_family(tmp_path)
        gov = make_governor(disk=400, recorder=recorder.log)
        gov.track("checkpoint", path)
        gov.charge("checkpoint", 100)
        names = [e["event"] for e in read_events(log)]
        assert "governor.reclaim" in names


class TestMemoryWatermark:
    def test_pressure_from_sources_and_levels(self):
        gov = make_governor(mem=1000)
        used = {"n": 0}
        gov.add_memory_source("test", lambda: used["n"])
        for n, level in ((0, None), (750, "reduce"), (850, "shrink"),
                         (920, "shed"), (1000, "cancel")):
            used["n"] = n
            assert gov.level_for(gov.pressure()) == level

    def test_adopted_object_counts_and_drops_when_dead(self):
        class Blob:
            def memory_bytes(self):
                return 600

        gov = make_governor(mem=1000)
        blob = Blob()
        gov.adopt(blob)
        assert gov.memory_used() == 600
        del blob
        assert gov.memory_used() == 0

    def test_shrinkers_run_at_shrink_level(self):
        gov = make_governor(mem=1000)
        used = {"n": 870}
        released = []
        gov.add_memory_source("test", lambda: used["n"])
        gov.add_shrinker("test", lambda: released.append(100) or 100)
        assert gov.mem_tick() == "shrink"
        assert released == [100]

    def test_budget_cancelled_cooperatively_at_watermark(self):
        gov = make_governor(mem=100)
        gov.add_memory_source("test", lambda: 150)
        budget = Budget()
        gov.register_budget(budget)
        assert gov.mem_tick() == "cancel"
        assert budget.expired_reason == "memory watermark exceeded"
        # The cooperative mechanism: the next step() call reports expiry.
        assert budget.step() is True

    def test_unregistered_budget_left_alone(self):
        gov = make_governor(mem=100)
        gov.add_memory_source("test", lambda: 150)
        budget = Budget()
        gov.register_budget(budget)
        gov.unregister_budget(budget)
        gov.mem_tick()
        assert budget.expired_reason is None

    def test_broken_source_does_not_take_governor_down(self):
        gov = make_governor(mem=1000)
        gov.add_memory_source("bad", lambda: 1 / 0)
        gov.add_memory_source("good", lambda: 500)
        assert gov.memory_used() == 500

    def test_responses_counted_in_stats(self):
        gov = make_governor(mem=100)
        gov.add_memory_source("test", lambda: 80)
        gov.mem_tick()
        gov.mem_tick()
        stats = gov.stats_dict()
        assert stats["responses"] == {"reduce": 2}
        assert stats["mem_ticks"] == 2
        assert stats["peak_mem"] == 80
        assert stats["peak_pressure"] == 0.8


class TestInstallation:
    def test_hooks_free_when_off(self, tmp_path):
        # With no governor installed the module hooks are no-ops -- no
        # exception, no accounting, regardless of arguments.
        assert governor_mod.current() is None
        governor_mod.charge("proof", 10 ** 12)
        governor_mod.track("flight", str(tmp_path / "x"))
        assert governor_mod.mem_tick() is None

    def test_governed_scopes_installation(self):
        cfg = GovernorConfig(mem_watermark=1000)
        with governed(cfg) as gov:
            assert gov is not None
            assert governor_mod.current() is gov
        assert governor_mod.current() is None

    def test_governed_accepts_live_governor_none_and_rejects_junk(self):
        gov = make_governor(mem=10)
        with governed(gov) as got:
            assert got is gov
        with governed(None) as got:
            assert got is None
        with governed(GovernorConfig()) as got:
            assert got is None  # disabled config: cheap no-op
        with pytest.raises(TypeError):
            governed(42)

    def test_module_charge_routes_to_installed(self, tmp_path):
        gov = make_governor(disk=10)
        path = str(tmp_path / "f.bin")
        with open(path, "wb") as fh:
            fh.write(b"x" * 10)
        gov.track("proof", path)
        with governed(gov):
            with pytest.raises(DiskQuotaExceeded):
                governor_mod.charge("proof", 100)

    def test_nested_governors_stack(self):
        outer, inner = make_governor(mem=10), make_governor(mem=20)
        with governed(outer):
            with governed(inner):
                assert governor_mod.current() is inner
            assert governor_mod.current() is outer


class TestChaosForcing:
    def test_disk_site_forces_rejection(self, tmp_path):
        sched = ChaosSchedule(
            str(tmp_path / "chaos"),
            [ChaosFault("governor.disk", 1, "disk-full")],
        )
        gov = make_governor(disk=10 ** 9)
        with active(sched):
            with pytest.raises(DiskQuotaExceeded) as exc_info:
                gov.charge("checkpoint", 1,
                           path=str(tmp_path / "ck.json"))
        assert exc_info.value.errno == errno.ENOSPC
        # The forced rejection consumed the fault; the next charge
        # under the same schedule admits normally.
        with active(sched):
            gov.charge("checkpoint", 1)

    def test_mem_site_forces_cancel_pressure(self, tmp_path):
        sched = ChaosSchedule(
            str(tmp_path / "chaos"),
            [ChaosFault("governor.mem", 1, "mem-pressure")],
        )
        gov = make_governor(mem=10 ** 9)  # real usage ~ 0
        with active(sched):
            assert gov.pressure() >= 1.0
            assert gov.pressure() < 1.0  # one-shot: consumed above
