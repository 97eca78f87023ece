"""Table 1: the case-study system of [5] on the 8-ECU token ring.

Paper results:

    Experiment    Result           Time     Var.   Lit.
    [5]           TRT = 8.55 ms    48 min   175k   995k
    [5] + CAN     U_CAN = 0.371    361 min  298k   1627k

and the comparison point: simulated annealing [5] reported TRT = 8.7 ms,
i.e. *above* the SAT-proved optimum.

Shape targets of this reproduction (absolute values differ -- synthetic
constants, different hardware, pure-Python solver):

- the SAT route returns a feasible, independently verified optimum,
- budgeted simulated annealing never beats it (usually lands above);
  its cost and wall time are recorded as ``sa_cost`` / ``sa_seconds``,
- the CAN variant solves with a per-mille bus-load optimum.
"""

import os
import time

import pytest
from conftest import bench_cell

from repro.baselines import simulated_annealing
from repro.core import (
    Allocator,
    MinimizeCanUtilization,
    MinimizeTRT,
    SolveRequest,
)
from repro.model import CAN
from repro.reporting import ExperimentRow, format_table
from repro.workloads import (
    tindell_architecture,
    tindell_partition,
    ticks_to_ms,
)


# REPRO_CERTIFY=1 runs every probe with full certification (DRUP proof
# checking + witness audits; see repro.certify) and requires the whole
# run to verify.  Off by default: checking costs wall time the timing
# columns should not absorb.
CERTIFY = os.environ.get("REPRO_CERTIFY") == "1"


def check_certificate(res, benchmark) -> None:
    if not CERTIFY:
        return
    assert res.certified, res.certificate and res.certificate.summary()
    benchmark.extra_info["certificate"] = res.certificate.summary()


@pytest.fixture(scope="module")
def rows():
    return []


@pytest.fixture(scope="module")
def cells():
    return {}


def test_token_ring_optimum_vs_annealing(benchmark, profile, rows, cells):
    arch = tindell_architecture()
    tasks = tindell_partition(profile.table1_tasks)

    def run():
        return Allocator(tasks, arch).minimize(request=SolveRequest(
            objective=MinimizeTRT("ring"), time_limit=profile.time_limit,
            certify=CERTIFY,
        ))

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    assert res.feasible
    assert res.verified, res.verification.problems
    check_certificate(res, benchmark)
    benchmark.extra_info["trt_ticks"] = res.cost
    benchmark.extra_info["trt_ms"] = ticks_to_ms(res.cost)
    benchmark.extra_info.update(res.formula_size)

    t0 = time.perf_counter()
    sa = simulated_annealing(
        tasks,
        arch,
        objective="trt",
        medium="ring",
        iterations=profile.table1_sa_iterations,
        seed=1,
    )
    sa_seconds = time.perf_counter() - t0
    benchmark.extra_info["sa_trt_ticks"] = sa.cost
    benchmark.extra_info["sa_seconds"] = sa_seconds
    # The heuristic can never beat the proved optimum (the paper's
    # headline observation: SA found 8.7 ms vs the true 8.55 ms).
    if sa.feasible:
        assert sa.cost >= res.cost
    rows.append(
        ExperimentRow(
            label=f"[5] ({len(tasks)} tasks)",
            result=f"TRT = {ticks_to_ms(res.cost)} ms "
            f"(SA: {ticks_to_ms(sa.cost) if sa.cost else 'infeasible'})",
            seconds=res.solve_seconds,
            bool_vars=res.formula_size["bool_vars"],
            literals=res.formula_size["literals"],
            extra={"probes": res.outcome.num_probes},
        )
    )
    cells["token_ring"] = bench_cell(res, tasks=len(tasks),
                                     sa_cost=sa.cost,
                                     sa_seconds=round(sa_seconds, 4))


def test_can_bus_utilization(benchmark, profile, rows, cells,
                             record_table, record_json):
    arch = tindell_architecture(kind=CAN)
    tasks = tindell_partition(profile.table1_tasks)

    def run():
        return Allocator(tasks, arch).minimize(request=SolveRequest(
            objective=MinimizeCanUtilization("ring"),
            time_limit=profile.time_limit,
            certify=CERTIFY,
        ))

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    assert res.feasible
    assert res.verified, res.verification.problems
    check_certificate(res, benchmark)
    u = res.cost / 1000.0
    assert 0.0 <= u < 1.0
    benchmark.extra_info["u_can"] = u
    benchmark.extra_info.update(res.formula_size)
    rows.append(
        ExperimentRow(
            label=f"[5] + CAN ({len(tasks)} tasks)",
            result=f"U_CAN = {u:.3f}",
            seconds=res.solve_seconds,
            bool_vars=res.formula_size["bool_vars"],
            literals=res.formula_size["literals"],
            extra={"probes": res.outcome.num_probes},
        )
    )
    cells["can"] = bench_cell(res, tasks=len(tasks))
    record_table(format_table("Table 1 reproduction", rows))
    record_json("table1", {"profile": profile.name, "cells": cells})
