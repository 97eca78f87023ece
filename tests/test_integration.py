"""End-to-end integration tests: optimizer outputs vs the independent
analysis and the baselines, on the actual paper workloads (small slices
so the suite stays fast)."""

import pytest

from repro.baselines import branch_and_bound, simulated_annealing
from repro.core import (
    Allocator,
    EncoderConfig,
    MinimizeCanUtilization,
    MinimizeSumTRT,
    MinimizeTRT,
    SolveRequest,
)
from repro.model import CAN
from repro.workloads import (
    architecture_a,
    architecture_c,
    architecture_c_can,
    ring_architecture,
    random_taskset,
    tindell_architecture,
    tindell_partition,
)


class TestTindellSlices:
    def test_partition7_optimum_verified(self):
        arch = tindell_architecture()
        tasks = tindell_partition(7)
        res = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
        assert res.feasible and res.verified
        assert res.cost >= 8 * 3  # at least 8 minimum slots

    def test_partition9_matches_branch_and_bound(self):
        arch = tindell_architecture()
        tasks = tindell_partition(9)
        sat = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
        bb = branch_and_bound(tasks, arch, objective="trt", medium="ring")
        assert sat.feasible and bb.feasible
        assert sat.cost == bb.cost

    def test_annealing_never_beats_optimum(self):
        arch = tindell_architecture()
        tasks = tindell_partition(9)
        sat = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
        for seed in range(3):
            sa = simulated_annealing(
                tasks, arch, objective="trt", medium="ring",
                iterations=150, seed=seed,
            )
            if sa.feasible:
                assert sa.cost >= sat.cost

    def test_can_variant(self):
        arch = tindell_architecture(kind=CAN)
        tasks = tindell_partition(7)
        res = Allocator(tasks, arch).minimize(
            MinimizeCanUtilization("ring")
        )
        assert res.feasible and res.verified
        assert 0 <= res.cost <= 1000


class TestHierarchicalWorkloads:
    def test_arch_a_small_slice(self):
        tasks = tindell_partition(7)
        res = Allocator(tasks, architecture_a()).minimize(MinimizeSumTRT())
        assert res.feasible and res.verified

    def test_arch_c_not_worse_than_a(self):
        tasks = tindell_partition(7)
        res_a = Allocator(tasks, architecture_a()).minimize(
            MinimizeSumTRT()
        )
        res_c = Allocator(tasks, architecture_c()).minimize(
            MinimizeSumTRT()
        )
        assert res_a.feasible and res_c.feasible
        # C's gateway hosts tasks -> strictly more placement freedom.
        assert res_c.cost <= res_a.cost

    def test_arch_c_can_swap(self):
        tasks = tindell_partition(7)
        res = Allocator(tasks, architecture_c_can()).minimize(
            MinimizeTRT("lower")
        )
        assert res.feasible and res.verified


class TestRandomSystems:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_feasible_systems_verify(self, seed):
        arch = ring_architecture(3)
        tasks = random_taskset(arch, 8, total_util=1.2, seed=seed)
        res = Allocator(tasks, arch).find_feasible()
        if res.feasible:
            assert res.verified, res.verification.problems

    @pytest.mark.parametrize("seed", range(2))
    def test_random_optimum_bounded_by_heuristics(self, seed):
        arch = ring_architecture(3)
        tasks = random_taskset(arch, 6, total_util=1.0, seed=100 + seed)
        sat = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
        if not sat.feasible:
            return
        sa = simulated_annealing(tasks, arch, objective="trt",
                                 medium="ring", iterations=100, seed=seed)
        if sa.feasible:
            assert sa.cost >= sat.cost


class TestConfigurationMatrix:
    """The encoder's configuration axes all converge to the same optima."""

    def _solve(self, **cfg):
        arch = tindell_architecture()
        tasks = tindell_partition(7)
        return Allocator(tasks, arch, EncoderConfig(**cfg)).minimize(
            MinimizeTRT("ring")
        )

    def test_pb_mode_same_optimum(self):
        a = self._solve()
        b = self._solve(pb_mode=True)
        assert a.cost == b.cost

    def test_paper_interference_same_optimum(self):
        a = self._solve()
        b = self._solve(interference="paper")
        assert a.cost == b.cost

    def test_rebuild_same_optimum(self):
        arch = tindell_architecture()
        tasks = tindell_partition(7)
        inc = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"),
            request=SolveRequest(reuse_learned=True),
        )
        reb = Allocator(tasks, arch).minimize(
            MinimizeTRT("ring"),
            request=SolveRequest(reuse_learned=False),
        )
        assert inc.cost == reb.cost
