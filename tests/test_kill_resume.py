"""SIGKILL-mid-run resume determinism (the CLI, end to end).

A solve with ``--checkpoint`` is SIGKILLed from outside once its
checkpoint file appears on disk -- the real power-loss scenario the
crash-safe persistence layer exists for (in-process chaos sites cannot
model a dead coordinator).  The resumed run must finish from the
recorded interval and report the same certified answer an uninterrupted
run produces: same cost, same proven flag, same status, and an
allocation that passes the independent schedulability analysis.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core import Allocator, MinimizeSumTRT, SolveRequest
from repro.io import save_system
from repro.workloads import random_taskset, ring_architecture

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(scope="module")
def system_file(tmp_path_factory):
    """A system big enough that a solve takes a couple of seconds --
    room to land a SIGKILL between two checkpoint saves."""
    arch = ring_architecture(3)
    tasks = random_taskset(arch, 12, 1.2, seed=3)
    path = tmp_path_factory.mktemp("killres") / "system.json"
    save_system(tasks, arch, path)
    return str(path), tasks, arch


@pytest.fixture(scope="module")
def reference(system_file):
    path, tasks, arch = system_file
    res = Allocator(tasks, arch).minimize(
        request=SolveRequest(objective=MinimizeSumTRT())
    )
    assert res.proven
    return res


def _solve_argv(system_path, out_path, ckpt_path, *extra):
    # --bounds=off: the relaxation sidecar shortens the search so much
    # the solve can finish before the test's SIGKILL lands.
    return [
        sys.executable, "-m", "repro", "solve", system_path,
        "--objective", "sum_trt", "--bounds", "off",
        "--checkpoint", ckpt_path, "-o", out_path, *extra,
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_killed_then_resume(system_path, tmp_path, *extra):
    """Start a solve, SIGKILL it after the first checkpoint save, then
    resume it to completion.  Returns the resumed run's output JSON."""
    ckpt = str(tmp_path / "ck.json")
    out = str(tmp_path / "out.json")
    proc = subprocess.Popen(
        _solve_argv(system_path, out, ckpt, *extra),
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(ckpt) or proc.poll() is not None:
                break
            time.sleep(0.02)
        assert os.path.exists(ckpt), "no checkpoint ever appeared"
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        killed = proc.wait(60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup only
            proc.kill()
            proc.wait(60)
    assert killed == -signal.SIGKILL, (
        f"solve finished (rc={killed}) before the kill landed -- "
        "system too small for this test"
    )
    assert not os.path.exists(out), "killed run must not emit a report"
    resumed = subprocess.run(
        _solve_argv(system_path, out, ckpt, "--resume", *extra),
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    with open(out) as fh:
        return json.load(fh)


def _assert_matches_reference(system_file, reference, report):
    _path, tasks, arch = system_file
    assert report["cost"] == reference.cost
    assert report["proven"] is True
    assert report["status"] == "optimal"
    from repro.analysis.feasibility import check_allocation
    from repro.io import allocation_from_dict

    alloc = allocation_from_dict(report)
    assert check_allocation(tasks, arch, alloc).schedulable


@pytest.mark.tier1_timeout(300)
def test_kill_resume_sequential(system_file, reference, tmp_path):
    report = _run_killed_then_resume(system_file[0], tmp_path)
    _assert_matches_reference(system_file, reference, report)


@pytest.mark.tier1_timeout(300)
def test_straight_and_resumed_certify_the_same_optimum(system_file,
                                                       tmp_path):
    """Two *sequential* runs -- one straight through, one killed and
    resumed -- certify bit-identical answers: same {cost, proven,
    status} envelope, and both emitted allocations independently
    re-evaluate to that same optimum.  (The allocation *witness* may
    legitimately differ: the resumed run's final re-certify probe can
    decode a different equally-optimal model.)"""
    from repro.baselines.common import evaluate_cost
    from repro.core.objectives import objective_spec
    from repro.io import allocation_from_dict

    system_path, tasks, arch = system_file
    straight = str(tmp_path / "straight.json")
    done = subprocess.run(
        _solve_argv(system_path, straight, str(tmp_path / "ck0.json")),
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    killed_dir = tmp_path / "killed"
    killed_dir.mkdir()
    resumed_report = _run_killed_then_resume(system_path, killed_dir)
    with open(straight) as fh:
        straight_report = json.load(fh)
    envelope = ("cost", "proven", "status")
    assert {k: straight_report[k] for k in envelope} == {
        k: resumed_report[k] for k in envelope
    }
    spec, medium = objective_spec(MinimizeSumTRT())
    for report in (straight_report, resumed_report):
        audited = evaluate_cost(
            tasks, arch, allocation_from_dict(report), spec, medium
        )
        assert audited == report["cost"]
