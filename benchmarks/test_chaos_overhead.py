"""Guard: disabled chaos fault-site hooks stay under 1% solve overhead.

The chaos layer promises to be *free when off*: every ``chaos_point`` /
``chaos_data`` / ``chaos_flag`` call site reduces to one module-global
truthiness check when no schedule is installed.  This benchmark checks
that promise against a table-4 solve (Arch A, Tindell partition) the
robust way -- by *counting* hook executions and multiplying by the
measured disabled per-call cost -- rather than by differencing two
noisy wall-clock runs:

1. a clean solve measures the baseline wall time ``T``;
2. the same solve under a never-firing schedule (every site armed with
   a trigger that can never be reached) counts real hook executions per
   site through the shared counter files;
3. ``timeit`` measures the disabled fast path per call;
4. ``overhead = calls * per_call / T`` must stay below 1%.

Results land in ``benchmarks/out/BENCH_chaos_overhead.json``.
"""

import time
import timeit

from conftest import bench_cell

from repro.chaos import (
    SITE_KINDS,
    SITES,
    ChaosFault,
    ChaosSchedule,
    chaos_point,
    current,
)
from repro.core import Allocator, MinimizeSumTRT, SolveRequest
from repro.robust import SearchCheckpoint
from repro.workloads import architecture_a, tindell_partition

#: A trigger no real run can reach: the schedule is installed and every
#: site counts executions, but nothing ever fires.
_NEVER = 10 ** 9

OVERHEAD_BUDGET = 0.01  # < 1% of solve wall time


def _armed_everywhere(state_dir: str) -> ChaosSchedule:
    faults = [
        ChaosFault(site, _NEVER, SITE_KINDS[site][0]) for site in SITES
    ]
    return ChaosSchedule(str(state_dir), faults)


def _request(objective, ckpt_path, proof_path, chaos=None):
    ckpt = SearchCheckpoint()
    ckpt.path = str(ckpt_path)
    return SolveRequest(
        objective=objective,
        certify=True,
        proof_log=str(proof_path),
        checkpoint=ckpt,
        chaos=chaos,
    )


def _disabled_per_call_seconds() -> float:
    assert current() is None
    n = 200_000
    secs = timeit.timeit(
        lambda: chaos_point("supervisor.stage"), number=n
    )
    return secs / n


def test_disabled_hooks_stay_under_one_percent(profile, tmp_path,
                                               record_json):
    tasks = tindell_partition(profile.table4_tasks)
    arch = architecture_a()
    objective = MinimizeSumTRT()

    # 1. Baseline: hooks present, no schedule installed (the production
    # configuration this guard protects).
    t0 = time.perf_counter()
    res = Allocator(tasks, arch).minimize(
        request=_request(
            objective, tmp_path / "ck.json", tmp_path / "run.proof"
        )
    )
    baseline_seconds = time.perf_counter() - t0
    assert res.feasible

    # 2. Count real hook executions with a never-firing schedule.
    sched = _armed_everywhere(tmp_path / "chaos")
    counted = Allocator(tasks, arch).minimize(
        request=_request(
            objective, tmp_path / "ck2.json", tmp_path / "run2.proof",
            chaos=sched,
        )
    )
    assert counted.feasible and counted.cost == res.cost
    calls = {site: sched.executions_of(site) for site in SITES}
    total_calls = sum(calls.values())

    # 3 + 4. Disabled per-call cost, projected onto the solve.
    per_call = _disabled_per_call_seconds()
    overhead_seconds = total_calls * per_call
    overhead_fraction = overhead_seconds / baseline_seconds
    cell = bench_cell(
        res,
        hook_calls=calls,
        hook_calls_total=total_calls,
        disabled_per_call_ns=round(per_call * 1e9, 2),
        baseline_seconds=round(baseline_seconds, 4),
        overhead_seconds=round(overhead_seconds, 6),
        overhead_fraction=round(overhead_fraction, 6),
        overhead_budget=OVERHEAD_BUDGET,
    )
    assert overhead_fraction < OVERHEAD_BUDGET, (
        f"disabled chaos hooks project to "
        f"{overhead_fraction:.2%} of a {baseline_seconds:.2f}s solve "
        f"({total_calls} calls at {per_call * 1e9:.0f}ns)"
    )

    record_json("chaos_overhead", {
        "profile": profile.name,
        "tasks": profile.table4_tasks,
        "architecture": "A",
        "cells": {"sequential": cell},
    })
