"""Tests for the genetic baseline."""

import pytest

from repro.baselines.genetic import genetic_allocator
from repro.core import Allocator, MinimizeTRT
from repro.model import (
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
)
from repro.workloads import tindell_architecture, tindell_partition


def ring2():
    return Architecture(
        ecus=[Ecu("p0"), Ecu("p1")],
        media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                      bit_rate=1_000_000, frame_overhead_bits=0,
                      min_slot=50, slot_overhead=10)],
    )


class TestGenetic:
    def test_finds_feasible(self):
        arch = ring2()
        ts = TaskSet([
            Task("a", 100, {"p0": 60, "p1": 60}, 100),
            Task("b", 100, {"p0": 60, "p1": 60}, 100),
        ])
        out = genetic_allocator(ts, arch, objective="sum_resp",
                                population=12, generations=10)
        assert out.feasible
        assert out.allocation.task_ecu["a"] != out.allocation.task_ecu["b"]
        assert out.evaluations > 0

    def test_deterministic_for_seed(self):
        arch = ring2()
        ts = TaskSet([
            Task(f"t{i}", 200, {"p0": 30, "p1": 30}, 200)
            for i in range(4)
        ])
        a = genetic_allocator(ts, arch, objective="sum_resp", seed=3,
                              population=10, generations=8)
        b = genetic_allocator(ts, arch, objective="sum_resp", seed=3,
                              population=10, generations=8)
        assert a.cost == b.cost

    def test_optimizes_trt(self):
        arch = ring2()
        # Co-locating sender/receiver avoids bus traffic entirely.
        ts = TaskSet([
            Task("s", 2000, {"p0": 100, "p1": 100}, 2000,
                 messages=(Message("r", 300, 1500),)),
            Task("r", 2000, {"p0": 100, "p1": 100}, 2000),
        ])
        out = genetic_allocator(ts, arch, objective="trt", medium="ring",
                                population=16, generations=15, seed=1)
        assert out.feasible
        assert out.cost == 100

    def test_never_beats_sat_on_case_study(self):
        arch = tindell_architecture()
        ts = tindell_partition(9)
        sat = Allocator(ts, arch).minimize(MinimizeTRT("ring"))
        ga = genetic_allocator(ts, arch, objective="trt", medium="ring",
                               population=20, generations=15, seed=5)
        if ga.feasible:
            assert ga.cost >= sat.cost

    def test_no_candidates_raises(self):
        arch = ring2()
        ts = TaskSet([Task("t", 100, {"p0": 10}, 100,
                           allowed=frozenset({"p1"}))])
        with pytest.raises(ValueError):
            genetic_allocator(ts, arch)

