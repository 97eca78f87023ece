"""Tests for the reporting helpers, the allocation renderer, the
sweep runner and the arith-level minimize convenience."""

from repro.analysis import Allocation, MsgRef, check_allocation
from repro.arith import IntSolver
from repro.model import (
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
)
from repro.fabric import fabric_sweep
from repro.reporting import (
    ExperimentRow,
    fmt_seconds,
    fmt_thousands,
    format_table,
    render_allocation,
)


class TestFormatting:
    def test_fmt_seconds(self):
        assert fmt_seconds(0) == "0:00"
        assert fmt_seconds(61) == "1:01"
        assert fmt_seconds(3600 + 125) == "1:02:05"

    def test_fmt_thousands(self):
        assert fmt_thousands(0) == "0k"
        assert fmt_thousands(175_400) == "175k"

    def test_format_table(self):
        rows = [
            ExperimentRow("exp1", "TRT = 8.55 ms", 2880.0, 175_000,
                          995_000, extra={"probes": 7}),
            ExperimentRow("exp2", "U = 0.371", 21_660.0, 298_000,
                          1_627_000),
        ]
        text = format_table("Table X", rows)
        assert "Table X" in text
        assert "exp1" in text and "8.55" in text
        assert "175k" in text and "995k" in text
        assert "probes" in text

    def test_format_empty_table(self):
        text = format_table("Empty", [])
        assert "Empty" in text


class TestRenderAllocation:
    def _system(self):
        arch = Architecture(
            ecus=[Ecu("p0"), Ecu("p1")],
            media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                          bit_rate=1_000_000, frame_overhead_bits=0,
                          min_slot=50, slot_overhead=10)],
        )
        t1 = Task("t1", 1000, {"p0": 250}, 1000,
                  messages=(Message("t2", 100, 800),),
                  allowed=frozenset({"p0"}))
        t2 = Task("t2", 1000, {"p1": 100}, 1000,
                  allowed=frozenset({"p1"}))
        ts = TaskSet([t1, t2])
        alloc = Allocation(
            task_ecu={"t1": "p0", "t2": "p1"},
            task_prio={"t1": 0, "t2": 1},
            message_path={MsgRef("t1", 0): ("ring",)},
            slot_ticks={("ring", "p0"): 110, ("ring", "p1"): 50},
        )
        return ts, arch, alloc

    def test_render_basic(self):
        ts, arch, alloc = self._system()
        text = render_allocation(ts, arch, alloc)
        assert "p0" in text and "t1" in text
        assert "25.0%" in text
        assert "TRT=160" in text
        assert "t1/m0: ring" in text

    def test_render_with_report(self):
        ts, arch, alloc = self._system()
        rep = check_allocation(ts, arch, alloc)
        text = render_allocation(ts, arch, alloc, report=rep)
        assert "r=250" in text  # t1's response time


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


class TestFabricSweep:
    def test_sequential(self):
        results = fabric_sweep(_square, [1, 2, 3], workers=0).results
        assert [r.value for r in results] == [1, 4, 9]
        assert all(r.ok for r in results)

    def test_parallel(self):
        results = fabric_sweep(_square, list(range(6)), workers=2).results
        assert [r.value for r in results] == [0, 1, 4, 9, 16, 25]

    def test_errors_isolated(self):
        results = fabric_sweep(_fail_on_three, [2, 3, 4],
                               workers=2).results
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "three is right out" in results[1].error

    def test_param_order_preserved(self):
        params = list(range(10))
        results = fabric_sweep(_square, params, workers=3).results
        assert [r.param for r in results] == params


class TestArithMinimize:
    def test_minimize_simple(self):
        s = IntSolver()
        x = s.int_var("x", 0, 100)
        y = s.int_var("y", 0, 100)
        s.require(x + y >= 37)
        out = s.minimize(x)
        assert out.feasible
        assert out.optimum == 0  # y alone can carry the bound

    def test_minimize_with_coupling(self):
        s = IntSolver()
        x = s.int_var("x", 0, 50)
        y = s.int_var("y", 0, 20)
        s.require(x + 2 * y >= 60)
        out = s.minimize(x)
        assert out.optimum == 20  # y maxes at 20 -> x >= 60-40
        assert s.value(x) == 20

    def test_minimize_unsat(self):
        s = IntSolver()
        x = s.int_var("x", 0, 5)
        s.require(x >= 10)
        out = s.minimize(x)
        assert not out.feasible
        assert out.optimum is None
