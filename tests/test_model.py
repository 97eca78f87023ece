"""Tests for the architecture / task / path-closure model."""

import pytest

from repro.model import (
    CAN,
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
    enumerate_path_closures,
)
from repro.model.paths import closures_by_endpoints


def fig1_architecture() -> Architecture:
    """The exact topology of the paper's figure 1."""
    return Architecture(
        ecus=[Ecu(f"p{i}") for i in range(1, 6)],
        media=[
            Medium("k1", TOKEN_RING, ("p1", "p2", "p3")),
            Medium("k2", TOKEN_RING, ("p2", "p4")),
            Medium("k3", TOKEN_RING, ("p3", "p5")),
        ],
    )


class TestEcu:
    def test_defaults(self):
        e = Ecu("p0")
        assert e.speed == 1.0 and e.allow_tasks

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            Ecu("p0", speed=0)


class TestMedium:
    def test_transmission_ticks_includes_overhead(self):
        m = Medium("k", CAN, ("a", "b"), bit_rate=1_000_000,
                   frame_overhead_bits=47)
        # 64-bit payload + 47 overhead = 111 bits at 1 Mbit/s = 111 us.
        assert m.transmission_ticks(64) == 111

    def test_transmission_ticks_rounds_up(self):
        m = Medium("k", CAN, ("a", "b"), bit_rate=3_000_000,
                   frame_overhead_bits=0)
        assert m.transmission_ticks(10) == 4  # 10/3 -> ceil

    def test_rejects_single_ecu(self):
        with pytest.raises(ValueError):
            Medium("k", CAN, ("a",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Medium("k", CAN, ("a", "a"))

    def test_connects(self):
        m = Medium("k", CAN, ("a", "b"))
        assert m.connects("a") and not m.connects("z")


class TestArchitecture:
    def test_gateways_fig1(self):
        arch = fig1_architecture()
        assert sorted(arch.gateways()) == ["p2", "p3"]

    def test_media_of_ecu(self):
        arch = fig1_architecture()
        assert sorted(arch.media_of_ecu("p2")) == ["k1", "k2"]
        assert arch.media_of_ecu("p4") == ["k2"]

    def test_gateway_between(self):
        arch = fig1_architecture()
        assert arch.gateway_between("k1", "k2") == "p2"
        assert arch.gateway_between("k2", "k3") is None

    def test_media_adjacency(self):
        arch = fig1_architecture()
        adj = arch.media_adjacency()
        assert sorted(adj["k1"]) == ["k2", "k3"]
        assert adj["k2"] == ["k1"]

    def test_rejects_two_gateways_between_media(self):
        with pytest.raises(ValueError, match="at most one gateway"):
            Architecture(
                ecus=[Ecu("a"), Ecu("b"), Ecu("c"), Ecu("d")],
                media=[
                    Medium("k1", CAN, ("a", "b", "c")),
                    Medium("k2", CAN, ("b", "c", "d")),
                ],
            )

    def test_rejects_unknown_ecu(self):
        with pytest.raises(ValueError, match="unknown ECU"):
            Architecture(
                ecus=[Ecu("a"), Ecu("b")],
                media=[Medium("k1", CAN, ("a", "z"))],
            )

    def test_task_capable_excludes_gateway_flag(self):
        arch = Architecture(
            ecus=[Ecu("a"), Ecu("g", allow_tasks=False), Ecu("b")],
            media=[Medium("k1", CAN, ("a", "g")),
                   Medium("k2", CAN, ("g", "b"))],
        )
        assert arch.task_capable_ecus() == ["a", "b"]

    def test_common_medium(self):
        arch = fig1_architecture()
        assert arch.common_medium("p1", "p2") == "k1"
        assert arch.common_medium("p1", "p4") is None


class TestPathClosures:
    def test_fig1_closures_exactly(self):
        arch = fig1_architecture()
        closures = enumerate_path_closures(arch)
        longest = {ph.longest for ph in closures}
        assert longest == {
            (),
            ("k1", "k2"),
            ("k1", "k3"),
            ("k2", "k1", "k3"),
            ("k3", "k1", "k2"),
        }
        assert len(closures) == 5  # ph0..ph4 as printed in the paper

    def test_sub_paths_are_prefixes(self):
        arch = fig1_architecture()
        for ph in enumerate_path_closures(arch):
            subs = ph.sub_paths
            if ph.longest:
                assert subs[-1] == ph.longest
                for i, sp in enumerate(subs):
                    assert sp == ph.longest[: i + 1]
            else:
                assert subs == [()]

    def test_single_medium_topology(self):
        arch = Architecture(
            ecus=[Ecu("a"), Ecu("b")], media=[Medium("k", CAN, ("a", "b"))]
        )
        closures = enumerate_path_closures(arch)
        assert {ph.longest for ph in closures} == {(), ("k",)}

    def test_max_hops_truncation(self):
        arch = fig1_architecture()
        closures = enumerate_path_closures(arch, max_hops=1)
        assert {ph.longest for ph in closures} == {
            (), ("k1",), ("k2",), ("k3",)
        }

    def test_cycle_topology_terminates(self):
        # Ring of three media joined pairwise by gateways.
        arch = Architecture(
            ecus=[Ecu(x) for x in "abcdef"],
            media=[
                Medium("k1", CAN, ("a", "b", "f")),
                Medium("k2", CAN, ("b", "c", "d")),
                Medium("k3", CAN, ("d", "e", "f")),
            ],
        )
        closures = enumerate_path_closures(arch)
        # Simple paths only: no medium repeats.
        for ph in closures:
            assert len(set(ph.longest)) == len(ph.longest)
        # From each medium there are two maximal simple paths around the
        # ring; 3 media * 2 + ph0 = 7.
        assert len(closures) == 7

    def test_endpoint_pairs_v_h(self):
        arch = fig1_architecture()
        closures = enumerate_path_closures(arch)
        index = closures_by_endpoints(arch, closures)
        # Same-ECU pairs use ph0.
        assert any(len(ph) == 0 for ph, _ in index[("p1", "p1")])
        # p1 -> p3 is a single-medium path on k1.
        assert any(h == ("k1",) for _, h in index[("p1", "p3")])
        # p1 -> p4 must cross k1 then k2.
        assert any(h == ("k1", "k2") for _, h in index[("p1", "p4")])
        # p4 -> p5 must cross all three media.
        assert any(h == ("k2", "k1", "k3") for _, h in index[("p4", "p5")])
        # v(h): for multi-media paths the endpoints must not be the
        # connecting gateways -- p2 cannot be the *sender* endpoint of
        # path (k1,k2) since p2 is the gateway between them.
        assert all(
            h != ("k1", "k2") for _, h in index.get(("p2", "p4"), [])
        )


class TestMessage:
    def test_validation(self):
        with pytest.raises(ValueError):
            Message("t", 0, 100)
        with pytest.raises(ValueError):
            Message("t", 8, 0)


class TestTask:
    def _task(self, **kw):
        base = dict(
            name="t1", period=1000, wcet={"a": 100}, deadline=1000
        )
        base.update(kw)
        return Task(**base)

    def test_valid(self):
        t = self._task()
        assert t.period == 1000

    def test_deadline_beyond_period_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            self._task(deadline=2000)

    def test_zero_wcet_rejected(self):
        with pytest.raises(ValueError):
            self._task(wcet={"a": 0})

    def test_candidate_ecus_respects_all_filters(self):
        arch = Architecture(
            ecus=[Ecu("a"), Ecu("b"), Ecu("g", allow_tasks=False)],
            media=[Medium("k1", CAN, ("a", "b", "g"))],
        )
        t = self._task(wcet={"a": 10, "b": 10, "g": 10},
                       allowed=frozenset({"a", "g"}))
        # g filtered by allow_tasks, b filtered by pi_i.
        assert t.candidate_ecus(arch) == ["a"]

    def test_utilization(self):
        t = self._task(wcet={"a": 250})
        assert t.utilization_on("a") == 0.25


class TestTaskSet:
    def _pair(self):
        t1 = Task("t1", 1000, {"a": 10}, 1000,
                  messages=(Message("t2", 64, 500),))
        t2 = Task("t2", 1000, {"a": 10}, 1000)
        return t1, t2

    def test_valid_set(self):
        ts = TaskSet(list(self._pair()))
        assert len(ts) == 2

    def test_unknown_target_rejected(self):
        t1 = Task("t1", 1000, {"a": 10}, 1000,
                  messages=(Message("zz", 64, 500),))
        with pytest.raises(ValueError, match="unknown task"):
            TaskSet([t1])

    def test_self_message_rejected(self):
        t1 = Task("t1", 1000, {"a": 10}, 1000,
                  messages=(Message("t1", 64, 500),))
        with pytest.raises(ValueError, match="itself"):
            TaskSet([t1])

    def test_unknown_separation_rejected(self):
        t1 = Task("t1", 1000, {"a": 10}, 1000,
                  separated_from=frozenset({"zz"}))
        with pytest.raises(ValueError, match="unknown task"):
            TaskSet([t1])

    def test_duplicate_names_rejected(self):
        t = Task("t1", 1000, {"a": 10}, 1000)
        with pytest.raises(ValueError, match="duplicate"):
            TaskSet([t, t])

    def test_chains(self):
        t1 = Task("t1", 1000, {"a": 10}, 1000,
                  messages=(Message("t2", 64, 500),))
        t2 = Task("t2", 1000, {"a": 10}, 1000,
                  messages=(Message("t3", 64, 500),))
        t3 = Task("t3", 1000, {"a": 10}, 1000)
        t4 = Task("t4", 1000, {"a": 10}, 1000)  # isolated
        ts = TaskSet([t1, t2, t3, t4])
        assert ts.chains() == [["t1", "t2", "t3"]]

    def test_subset_drops_dangling_references(self):
        t1 = Task("t1", 1000, {"a": 10}, 1000,
                  messages=(Message("t2", 64, 500), Message("t3", 64, 500)),
                  separated_from=frozenset({"t3"}))
        t2 = Task("t2", 1000, {"a": 10}, 1000)
        t3 = Task("t3", 1000, {"a": 10}, 1000)
        ts = TaskSet([t1, t2, t3])
        sub = ts.subset(["t1", "t2"])
        assert len(sub) == 2
        assert sub["t1"].messages == (Message("t2", 64, 500),)
        assert sub["t1"].separated_from == frozenset()

    def test_total_utilization(self):
        arch = Architecture(
            ecus=[Ecu("a"), Ecu("b")], media=[Medium("k", CAN, ("a", "b"))]
        )
        t1 = Task("t1", 1000, {"a": 100, "b": 200}, 1000)
        ts = TaskSet([t1])
        assert ts.total_utilization(arch) == pytest.approx(0.1)
