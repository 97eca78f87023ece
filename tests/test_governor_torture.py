"""Resource-exhaustion torture: the governor acceptance suite.

Every run under injected disk/memory exhaustion must terminate with a
*typed* exit code, and whenever it produces a certified result the
``{cost, proven, status}`` envelope is bit-identical to a fault-free
oracle run of the same system.  Exhaustion degrades *persistence and
pace* -- checkpoint saves, proof spooling, flight logging, learnt-DB
size -- never the answer.

Sections:

1. Per-site ENOSPC injection across every persistence writer a solve
   exercises (``checkpoint.write``, ``proof.append``, ``flight.append``)
   plus the governor's own admission check (``governor.disk``).
2. Proof-spool condemnation: when the artifact can never land, the
   certificate is condemned via the existing typed flag
   (``proof_artifact_ok=False`` -> ``CERTIFICATE_FAILED``), the search
   result itself untouched.
3. A *real* (non-chaos) tight disk quota: typed quota rejections, the
   one-frame overshoot bound, and an unchanged envelope.
4. Forced memory pressure: cooperative ``Budget`` cancellation surfaces
   as graceful degradation, recorded in the flight log.
5. The curated ``resource`` chaos profile end-to-end, plus a clean
   resume from whatever state the tortured run left behind.
6. Hypothesis property (satellite 3): ``disk-full`` at *arbitrary byte
   offsets* in every persistence writer leaves each artifact readable,
   repaired, or quarantined on restart -- reusing the torn-tail repair
   oracles (``SearchCheckpoint.load`` / ``load_proof`` /
   ``scan_segment`` / ``read_events``).
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosFault, ChaosSchedule
from repro.core import (
    Allocator,
    ExitCode,
    MinimizeTRT,
    SolveRequest,
    solve,
)
from repro.governor import GovernorConfig
from repro.robust import Budget, SearchCheckpoint
from repro.robust.flight import read_events

from tests.test_chaos_sites import tiny_system

OBJECTIVE = "ring"


@pytest.fixture(scope="module")
def system():
    return tiny_system()


@pytest.fixture(scope="module")
def oracle(system):
    """The fault-free certified envelope every tortured run must match
    whenever it claims a proven answer."""
    tasks, arch = system
    res = Allocator(tasks, arch).minimize(
        request=SolveRequest(objective=MinimizeTRT(OBJECTIVE), certify=True)
    )
    assert res.proven and res.certificate.all_verified
    return {"cost": res.cost, "proven": True, "status": "optimal"}


def _envelope(report) -> dict:
    return {
        "cost": report.cost,
        "proven": report.proven,
        "status": report.status,
    }


def _request(tmp_path, **over) -> SolveRequest:
    """A fully-instrumented request: certified, proof-spooled,
    checkpointed, flight-logged, governed."""
    ckpt = SearchCheckpoint()
    ckpt.path = str(tmp_path / "ck.json")
    base = dict(
        objective=MinimizeTRT(OBJECTIVE),
        certify=True,
        proof_log=str(tmp_path / "run.proof"),
        checkpoint=ckpt,
        flight_log=str(tmp_path / "flight.jsonl"),
        governor=GovernorConfig(disk_quota=1 << 20),
    )
    base.update(over)
    return SolveRequest(**base)


# ----------------------------------------------------------------------
# 1. ENOSPC at every persistence writer the solve exercises


class TestDiskFullPerSite:
    SITES = ("checkpoint.write", "proof.append", "flight.append",
             "governor.disk")

    @pytest.mark.parametrize("site", SITES)
    def test_typed_exit_and_identical_envelope(self, system, oracle,
                                               site, tmp_path):
        tasks, arch = system
        schedule = ChaosSchedule(
            str(tmp_path / "chaos"), [ChaosFault(site, 1, "disk-full")]
        )
        report = solve(tasks, arch,
                       _request(tmp_path, chaos=schedule))
        assert isinstance(report.exit_code, ExitCode)
        assert report.status != "infeasible"
        if report.proven:
            assert _envelope(report) == oracle

    @pytest.mark.parametrize("site", SITES)
    def test_mid_write_partial_frame(self, system, oracle, site,
                                     tmp_path):
        """ENOSPC after a few bytes already reached the medium: the torn
        prefix lands on disk, and restart-time repair (not the happy
        path) is what keeps state loadable."""
        tasks, arch = system
        schedule = ChaosSchedule(
            str(tmp_path / "chaos"),
            [ChaosFault(site, 1, "disk-full", offset=7)],
        )
        report = solve(tasks, arch,
                       _request(tmp_path, chaos=schedule))
        assert isinstance(report.exit_code, ExitCode)
        if report.proven:
            assert _envelope(report) == oracle


# ----------------------------------------------------------------------
# 2. Proof condemnation is typed, never silent


def test_unlandable_proof_condemns_certificate(system, oracle, tmp_path):
    """Both the append and its retry hit ENOSPC: the spool raises the
    typed ProofArtifactError, the certifier condemns the artifact
    (``proof_artifact_ok=False``), and the CLI-visible outcome is
    CERTIFICATE_FAILED -- while the search-side answer is unchanged."""
    tasks, arch = system
    schedule = ChaosSchedule(
        str(tmp_path / "chaos"),
        [ChaosFault("proof.append", 1, "disk-full", repeat=2)],
    )
    report = solve(tasks, arch, _request(tmp_path, chaos=schedule))
    cert = report.certificate
    assert cert is not None
    assert cert.proof_artifact_ok is False
    assert report.exit_code == ExitCode.CERTIFICATE_FAILED
    # Persistence was condemned; the answer was not.
    assert report.cost == oracle["cost"]
    assert report.status == "optimal"


# ----------------------------------------------------------------------
# 3. A real tight disk quota (no chaos): typed rejections, bounded
#    overshoot, unchanged envelope


def test_tight_quota_degrades_typed_and_bounded(system, oracle, tmp_path):
    tasks, arch = system
    quota = 2048
    report = solve(
        tasks, arch,
        _request(tmp_path, governor=GovernorConfig(disk_quota=quota)),
    )
    assert isinstance(report.exit_code, ExitCode)
    assert report.cost == oracle["cost"]
    assert report.status == "optimal"
    stats = report.result.solver_stats["governor"]
    assert stats["quota_rejections"] >= 1
    assert stats["charges"] >= 1
    assert stats["peak_disk"] >= 1
    # Whatever checkpoint records landed under the quota load.
    try:
        back = SearchCheckpoint.load(str(tmp_path / "ck.json"))
    except FileNotFoundError:
        pass  # never admitted: allowed under a tight quota
    else:
        assert not back.load_reports  # failed saves were cut off again
        assert not back.started or back.right >= oracle["cost"]


def test_quota_never_exceeded_by_more_than_one_frame(system, tmp_path):
    """Byte-level check of the acceptance bound: after every admitted
    write, on-disk usage of governed categories stays <= quota + the
    size of the single largest admitted frame."""
    import os

    tasks, arch = system
    quota = 4096
    report = solve(
        tasks, arch,
        _request(tmp_path, governor=GovernorConfig(disk_quota=quota)),
    )
    assert isinstance(report.exit_code, ExitCode)
    sizes = []
    for name in os.listdir(tmp_path):
        p = tmp_path / name
        if p.is_file() and name != "run.proof.quarantined":
            sizes.append(p.stat().st_size)
    largest = max(sizes, default=0)
    assert sum(sizes) <= quota + largest, (
        f"governed usage {sum(sizes)} exceeds quota {quota} by more "
        f"than one frame ({largest})"
    )


# ----------------------------------------------------------------------
# 4. Memory pressure: cooperative cancel through the Budget


def test_forced_mem_pressure_cancels_cooperatively(system, tmp_path):
    """Chaos forces pressure >= 1.0 on the solver's first governor tick:
    the cancel response sets ``expired_reason`` on the registered
    budget, the search stops at the next budget checkpoint, and the
    supervised chain degrades gracefully -- typed exit, no hang, the
    response trail in the flight log."""
    tasks, arch = system
    schedule = ChaosSchedule(
        str(tmp_path / "chaos"),
        [ChaosFault("governor.mem", 1, "mem-pressure", repeat=8)],
    )
    report = solve(
        tasks, arch,
        _request(
            tmp_path,
            chaos=schedule,
            governor=GovernorConfig(mem_watermark=1 << 30),
            budget=Budget(wall_seconds=60.0),
        ),
    )
    # Typed outcomes only: OK (a heuristic stage still answered),
    # BUDGET_EXHAUSTED (nothing did), or CERTIFICATE_FAILED (the
    # interrupted stage's partial certificate is condemned rather than
    # passed off as verified).
    assert report.exit_code in (
        ExitCode.OK, ExitCode.BUDGET_EXHAUSTED, ExitCode.CERTIFICATE_FAILED,
    )
    assert report.status != "infeasible"
    assert not report.proven  # a cancelled search never claims a proof
    events = read_events(str(tmp_path / "flight.jsonl"))
    names = [e.get("event") for e in events]
    assert "governor.mem-pressure" in names
    assert "governor.cancel" in names


def test_mem_pressure_without_budget_still_terminates(system, oracle,
                                                      tmp_path):
    """No budget registered: the cancel level has nothing to cancel, so
    forced pressure only shrinks the learnt DB -- the solve still
    proves the oracle envelope."""
    tasks, arch = system
    schedule = ChaosSchedule(
        str(tmp_path / "chaos"),
        [ChaosFault("governor.mem", 1, "mem-pressure", repeat=8)],
    )
    report = solve(
        tasks, arch,
        _request(
            tmp_path,
            chaos=schedule,
            governor=GovernorConfig(mem_watermark=1 << 30),
        ),
    )
    assert _envelope(report) == oracle


# ----------------------------------------------------------------------
# 5. The curated "resource" profile, end to end


def test_resource_profile_end_to_end(system, oracle, tmp_path):
    tasks, arch = system
    schedule = ChaosSchedule.from_profile(
        "resource", str(tmp_path / "chaos")
    )
    report = solve(
        tasks, arch,
        _request(
            tmp_path,
            chaos=schedule,
            governor=GovernorConfig(disk_quota=1 << 20,
                                    mem_watermark=1 << 30),
            budget=Budget(wall_seconds=60.0),
        ),
    )
    assert isinstance(report.exit_code, ExitCode)
    assert report.status != "infeasible"
    if report.proven:
        assert _envelope(report) == oracle
    # Recoverable: a clean run resuming from whatever checkpoint the
    # tortured run left behind still proves the oracle optimum.
    try:
        resumed = SearchCheckpoint.load(str(tmp_path / "ck.json"))
    except (FileNotFoundError, ValueError, OSError):
        resumed = SearchCheckpoint()
        resumed.path = str(tmp_path / "ck2.json")
    clean = Allocator(tasks, arch).minimize(
        request=SolveRequest(
            objective=MinimizeTRT(OBJECTIVE), certify=True,
            checkpoint=resumed,
        )
    )
    assert clean.proven and clean.cost == oracle["cost"]
    assert clean.certificate.all_verified


# ----------------------------------------------------------------------
# 6. Satellite 3: disk-full at arbitrary byte offsets in every
#    persistence writer -- restart-time state is always recoverable or
#    quarantinable via the existing torn-tail repair oracles.


WRITERS = ("checkpoint", "proof", "fabric", "flight")


def _torture_checkpoint(root, offset):
    from repro.chaos import active

    path = f"{root}/ck.json"
    ck = SearchCheckpoint(lower=0, upper=9, left=1, right=9,
                          feasible=True)
    ck.save(path)  # fault-free baseline
    schedule = ChaosSchedule(
        f"{root}/chaos",
        [ChaosFault("checkpoint.write", 1, "disk-full", offset=offset)],
    )
    ck.left = 2
    with active(schedule):
        try:
            ck.save()
        except OSError:
            pass  # the torn prefix landed, and was cut off again
    ck.close()
    # Restart: the intact records load; a torn one is never trusted.
    back = SearchCheckpoint.load(path)
    assert back.left in (1, 2)
    assert not back.load_reports


def _torture_proof(root, offset):
    from repro.certify.proofio import ProofSpool, load_proof
    from repro.chaos import active

    path = f"{root}/run.proof"
    lines = ["line-one", "line-two", "line-three"]
    schedule = ChaosSchedule(
        f"{root}/chaos",
        [ChaosFault("proof.append", 1, "disk-full", offset=offset)],
    )
    with active(schedule):
        spool = ProofSpool(path, fresh=True)
        spool.append(lines)  # verified append repairs the torn landing
        spool.close()
    assert load_proof(path) == lines


def _torture_fabric(root, offset):
    from repro.chaos import active
    from repro.fabric.store import SegmentWriter, scan_segment

    path = f"{root}/seg.bin"
    schedule = ChaosSchedule(
        f"{root}/chaos",
        [ChaosFault("fabric.store.append", 1, "disk-full",
                    offset=offset)],
    )
    with active(schedule):
        w = SegmentWriter(path)
        w.append({"job": "a"})
        w.append({"job": "b"})
        w.close()
    scan = scan_segment(path)
    assert [r["job"] for r in scan.records] == ["a", "b"]
    assert not scan.damaged


def _torture_flight(root, offset):
    from repro.chaos import active
    from repro.robust.flight import FlightRecorder

    path = f"{root}/flight.jsonl"
    schedule = ChaosSchedule(
        f"{root}/chaos",
        [ChaosFault("flight.append", 1, "disk-full", offset=offset)],
    )
    with active(schedule):
        rec = FlightRecorder(path, actor="test")
        for name in ("one", "two", "three"):
            rec.log(name)  # best-effort: swallows the injected ENOSPC
    events = read_events(path)  # must never raise
    seen = [e["event"] for e in events]
    # The surviving events are a subsequence of what was logged; the
    # fault hits "one" or "two" (both may survive via the torn-prefix
    # landing being a valid line boundary), "three" is fault-free.
    assert "three" in seen or seen == []
    it = iter(["one", "two", "three"])
    assert all(any(name == want for want in it) for name in seen), (
        f"flight events reordered or forged: {seen}"
    )


@settings(max_examples=30, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=2048),
    writer=st.sampled_from(WRITERS),
)
def test_disk_full_at_any_offset_leaves_recoverable_state(offset, writer):
    with tempfile.TemporaryDirectory() as root:
        {
            "checkpoint": _torture_checkpoint,
            "proof": _torture_proof,
            "fabric": _torture_fabric,
            "flight": _torture_flight,
        }[writer](root, offset)
