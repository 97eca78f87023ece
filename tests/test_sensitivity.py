"""Tests for the WCET sensitivity analysis."""

import pytest

from repro.analysis import Allocation, check_allocation
from repro.analysis.sensitivity import (
    task_wcet_slack,
    wcet_scaling_margin,
)
from repro.model import (
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Task,
    TaskSet,
)


def arch2():
    return Architecture(
        ecus=[Ecu("p0"), Ecu("p1")],
        media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                      bit_rate=1_000_000, frame_overhead_bits=0,
                      min_slot=50, slot_overhead=10)],
    )


def simple_alloc(util_pct):
    # One task per ECU at util_pct% utilization.
    c = util_pct
    ts = TaskSet([
        Task("a", 100, {"p0": c}, 100, allowed=frozenset({"p0"})),
        Task("b", 100, {"p1": c}, 100, allowed=frozenset({"p1"})),
    ])
    alloc = Allocation(task_ecu={"a": "p0", "b": "p1"},
                       task_prio={"a": 0, "b": 1})
    return ts, alloc


class TestScalingMargin:
    def test_half_loaded_doubles(self):
        ts, alloc = simple_alloc(50)
        arch = arch2()
        assert wcet_scaling_margin(ts, arch, alloc) == 200

    def test_fully_loaded_has_no_margin(self):
        ts, alloc = simple_alloc(100)
        arch = arch2()
        assert wcet_scaling_margin(ts, arch, alloc) == 100

    def test_margin_is_tight(self):
        ts, alloc = simple_alloc(40)
        arch = arch2()
        m = wcet_scaling_margin(ts, arch, alloc)
        assert m == 250
        # One percent more breaks it.
        from repro.analysis.sensitivity import _scaled

        assert not check_allocation(
            _scaled(ts, m + 1), arch, alloc
        ).schedulable

    def test_rejects_infeasible_input(self):
        ts, alloc = simple_alloc(100)
        arch = arch2()
        bad = Allocation(task_ecu={"a": "p0", "b": "p0"},
                         task_prio={"a": 0, "b": 1})
        bad_ts = TaskSet([
            Task("a", 100, {"p0": 100}, 100),
            Task("b", 100, {"p0": 100}, 100),
        ])
        with pytest.raises(ValueError):
            wcet_scaling_margin(bad_ts, arch, bad)


class TestTaskSlack:
    def test_slack_of_isolated_task(self):
        ts, alloc = simple_alloc(30)
        arch = arch2()
        # a alone on p0 with deadline 100: slack = 70.
        assert task_wcet_slack(ts, arch, alloc, "a") == 70

    def test_slack_with_interference(self):
        arch = arch2()
        ts = TaskSet([
            Task("hi", 100, {"p0": 30}, 50, allowed=frozenset({"p0"})),
            Task("lo", 100, {"p0": 30}, 100, allowed=frozenset({"p0"})),
        ])
        alloc = Allocation(task_ecu={"hi": "p0", "lo": "p0"},
                           task_prio={"hi": 0, "lo": 1})
        # lo sees r = 30 + 30 = 60; adding 40 makes r = 100 (= deadline).
        assert task_wcet_slack(ts, arch, alloc, "lo") == 40
        # hi growth also hurts lo: hi slack limited by both deadlines.
        s = task_wcet_slack(ts, arch, alloc, "hi")
        assert 0 < s <= 40

    def test_unknown_task(self):
        ts, alloc = simple_alloc(30)
        with pytest.raises(KeyError):
            task_wcet_slack(ts, arch2(), alloc, "nope")


class TestCriticalTasks:
    """A task is critical when it has no WCET slack left."""

    def test_fully_loaded_all_critical(self):
        ts, alloc = simple_alloc(100)
        assert [task_wcet_slack(ts, arch2(), alloc, n)
                for n in ("a", "b")] == [0, 0]

    def test_light_load_none_critical(self):
        ts, alloc = simple_alloc(20)
        assert all(task_wcet_slack(ts, arch2(), alloc, n) > 0
                   for n in ("a", "b"))
