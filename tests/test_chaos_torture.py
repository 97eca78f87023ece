"""Property-style chaos torture: the capstone acceptance test.

For every pinned seed, a full certified solve runs under a randomized
:class:`repro.chaos.ChaosSchedule` -- faults injected across the whole
stack (checkpoint writes and fsyncs, proof-artifact appends,
supervised-stage entry).  The contract,
checked against a fault-free oracle run of the same system:

1. **Never a hang** -- every run returns (the per-test timeout is the
   ultimate watchdog; injected hangs are kept short).
2. **Never a wrong certified answer** -- whenever the run claims
   ``optimal``/``proven``, the cost equals the oracle's and the
   allocation passes the independent schedulability analysis.
3. **Never a silently-accepted corrupt artifact** -- whenever the
   certificate says ``all_verified``, the on-disk proof artifact (when
   one was spooled) structurally verifies; damage always surfaces as a
   failed certificate, a typed error, or a quarantined file.
4. **Always a documented outcome** -- ``report.exit_code`` is a member
   of :class:`repro.core.ExitCode`, and a feasible system is never
   reported ``infeasible`` (chaos must not forge an UNSAT certificate).
5. **Recoverable** -- a clean (fault-free) run resuming from whatever
   checkpoint the chaos run left behind still proves the oracle
   optimum: checkpoints written under fire fold to their intact
   records, or are rejected as corrupt -- never trusted wrongly.
"""

from __future__ import annotations

import os

import pytest

from repro.chaos import ChaosSchedule
from repro.core import (
    Allocator,
    ExitCode,
    MinimizeTRT,
    SolveRequest,
    solve,
)
from repro.robust import Budget, SearchCheckpoint

from tests.test_chaos_sites import tiny_system

#: >= 25 pinned seeds.
SEEDS = list(range(1, 29))

OBJECTIVE = "ring"


@pytest.fixture(scope="module")
def system():
    return tiny_system()


@pytest.fixture(scope="module")
def oracle(system):
    """The fault-free certified optimum every chaos run must match."""
    tasks, arch = system
    res = Allocator(tasks, arch).minimize(
        request=SolveRequest(objective=MinimizeTRT(OBJECTIVE), certify=True)
    )
    assert res.proven and res.certificate.all_verified
    return res


def _verify_allocation(system, alloc) -> bool:
    from repro.analysis.feasibility import check_allocation

    tasks, arch = system
    return check_allocation(tasks, arch, alloc).schedulable


@pytest.mark.parametrize("seed", SEEDS)
def test_torture_seed(system, oracle, seed, tmp_path):
    tasks, arch = system
    schedule = ChaosSchedule.from_seed(
        seed, str(tmp_path / "chaos"), hang_seconds=0.02
    )
    ckpt_path = str(tmp_path / "ck.json")
    proof_path = str(tmp_path / "run.proof")
    ckpt = SearchCheckpoint()
    ckpt.path = ckpt_path
    request = SolveRequest(
        objective=MinimizeTRT(OBJECTIVE),
        certify=True,
        proof_log=proof_path,
        checkpoint=ckpt,
        budget=Budget(wall_seconds=60.0),
        chaos=schedule,
    )

    # (1) never a hang, never an unhandled exception: the supervised
    # solve must return -- chaos surfaces only through its report.
    report = solve(tasks, arch, request)

    # (4) always a documented outcome.
    assert isinstance(report.exit_code, ExitCode)
    assert report.status != "infeasible", (
        f"seed {seed}: chaos forged an infeasibility verdict "
        f"(events: {schedule.events()})"
    )

    # (2) never a wrong certified answer.
    if report.status == "optimal":
        assert report.proven
        assert report.cost == oracle.cost, (
            f"seed {seed}: certified {report.cost}, oracle {oracle.cost} "
            f"(events: {schedule.events()})"
        )
    if report.allocation is not None and report.status in (
        "optimal", "upper_bound", "feasible"
    ):
        assert _verify_allocation(system, report.allocation)

    # (3) never a silently-accepted corrupt artifact.
    cert = report.certificate
    if cert is not None and getattr(cert, "proof_artifact", None):
        from repro.certify import ProofArtifactError, load_proof

        if cert.all_verified:
            load_proof(cert.proof_artifact)  # must not raise
        else:
            # A condemned artifact is allowed to be damaged -- but the
            # damage must be *detectable*, never a shorter valid proof
            # passed off as complete.
            try:
                load_proof(cert.proof_artifact)
            except (ProofArtifactError, OSError):
                pass

    # (5) the checkpoint the chaos run left behind is recoverable: a
    # clean resume still proves the oracle optimum.
    try:
        resumed_ck = SearchCheckpoint.load(ckpt_path)
    except (FileNotFoundError, ValueError, OSError):
        resumed_ck = SearchCheckpoint()  # corrupt/absent: start over
        resumed_ck.path = str(tmp_path / "ck2.json")
    clean = Allocator(tasks, arch).minimize(
        request=SolveRequest(
            objective=MinimizeTRT(OBJECTIVE), certify=True,
            checkpoint=resumed_ck,
        )
    )
    assert clean.proven and clean.cost == oracle.cost, (
        f"seed {seed}: clean resume broke "
        f"(events: {schedule.events()})"
    )
    assert clean.certificate.all_verified
    assert _verify_allocation(system, clean.allocation)


def test_seeds_meet_acceptance_floor():
    assert len(SEEDS) >= 25


def test_checkpoint_torture_profile_leaves_valid_state(system, oracle,
                                                       tmp_path):
    """Torn, corrupted, and failed checkpoint saves mid-run must leave
    behind either a *verified* checkpoint or typed corruption -- while
    the solve itself still proves the optimum (damage is persistence-
    side only).  A failed save is cut off again and the next clean save
    carries its changes, so the final on-disk state loads cleanly."""
    tasks, arch = system
    schedule = ChaosSchedule.from_profile(
        "checkpoint-torture", str(tmp_path / "chaos")
    )
    ckpt = SearchCheckpoint()
    ckpt.path = str(tmp_path / "ck.json")
    res = Allocator(tasks, arch).minimize(
        request=SolveRequest(
            objective=MinimizeTRT(OBJECTIVE), checkpoint=ckpt,
            chaos=schedule,
        )
    )
    assert res.proven and res.cost == oracle.cost
    # All three fault kinds actually fired on the persistence path.
    kinds = {e["kind"] for e in schedule.events()}
    assert kinds == {"io-error", "torn-write", "corrupt-bytes"}
    assert res.outcome.checkpoint_errors >= 1  # the failed fsync
    # Clean saves followed the damage: the folded interval is closed
    # and agrees with the certified optimum.
    back = SearchCheckpoint.load(ckpt.path)
    assert back.finished
    assert back.left == back.right == res.cost
    assert [p for p in os.listdir(tmp_path) if ".tmp" in p] == []
