"""White-box tests of encoder internals: endpoint sets v(h), feasible
sub-path pruning, slot bounds, message priority assignment, obligation
guards and formula exports."""

import pytest

from repro.analysis.allocation import MsgRef
from repro.core import EncoderConfig, ProblemEncoding
from repro.model import (
    CAN,
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
)


def fig1_arch(**ring_kw):
    kw = dict(bit_rate=1_000_000, frame_overhead_bits=0,
              min_slot=50, slot_overhead=10, gateway_service=25)
    kw.update(ring_kw)
    return Architecture(
        ecus=[Ecu(f"p{i}") for i in range(1, 6)],
        media=[
            Medium("k1", TOKEN_RING, ("p1", "p2", "p3"), **kw),
            Medium("k2", TOKEN_RING, ("p2", "p4"), **kw),
            Medium("k3", TOKEN_RING, ("p3", "p5"), **kw),
        ],
    )


def _enc(tasks, arch, **cfg):
    return ProblemEncoding(TaskSet(tasks), arch, EncoderConfig(**cfg))


class TestVhSets:
    def test_single_medium(self):
        arch = fig1_arch()
        t = Task("t", 1000, {"p1": 10}, 1000)
        enc = _enc([t], arch)
        src, dst = enc._vh_sets(("k1",))
        assert src == {"p1", "p2", "p3"}
        assert dst == {"p1", "p2", "p3"}

    def test_two_hop_excludes_gateways(self):
        arch = fig1_arch()
        t = Task("t", 1000, {"p1": 10}, 1000)
        enc = _enc([t], arch)
        src, dst = enc._vh_sets(("k1", "k2"))
        # p2 is the gateway between k1 and k2: not a valid endpoint.
        assert src == {"p1", "p3"}
        assert dst == {"p4"}

    def test_three_hop(self):
        arch = fig1_arch()
        t = Task("t", 1000, {"p1": 10}, 1000)
        enc = _enc([t], arch)
        src, dst = enc._vh_sets(("k2", "k1", "k3"))
        assert src == {"p4"}
        assert dst == {"p5"}


class TestFeasibleSubpaths:
    def test_pinned_endpoints_prune_closures(self):
        arch = fig1_arch()
        s = Task("s", 10_000, {"p4": 10}, 10_000,
                 messages=(Message("r", 100, 5_000),),
                 allowed=frozenset({"p4"}))
        r = Task("r", 10_000, {"p5": 10}, 10_000,
                 allowed=frozenset({"p5"}))
        enc = _enc([s, r], arch)
        feas = enc._feasible[MsgRef("s", 0)]
        # Only the k2->k1->k3 closure admits p4 -> p5; no sub-path of
        # any other closure (and never ph0).
        all_paths = {h for subs in feas.values() for h in subs}
        assert all_paths == {("k2", "k1", "k3")}

    def test_colocatable_pair_keeps_ph0(self):
        arch = fig1_arch()
        s = Task("s", 10_000, {"p1": 10}, 10_000,
                 messages=(Message("r", 100, 5_000),))
        r = Task("r", 10_000, {"p1": 10, "p3": 10}, 10_000)
        enc = _enc([s, r], arch)
        feas = enc._feasible[MsgRef("s", 0)]
        all_paths = {h for subs in feas.values() for h in subs}
        assert () in all_paths            # co-location possible
        assert ("k1",) in all_paths       # direct hop possible

    def test_unroutable_message_raises(self):
        arch = Architecture(
            ecus=[Ecu("a"), Ecu("b"), Ecu("c"), Ecu("d")],
            media=[Medium("k1", CAN, ("a", "b")),
                   Medium("k2", CAN, ("c", "d"))],
        )
        s = Task("s", 1000, {"a": 10}, 1000,
                 messages=(Message("r", 100, 500),),
                 allowed=frozenset({"a"}))
        r = Task("r", 1000, {"c": 10}, 1000, allowed=frozenset({"c"}))
        with pytest.raises(ValueError, match="cannot be routed"):
            _enc([s, r], arch)


class TestSlotBounds:
    def test_default_derivation(self):
        arch = fig1_arch()
        s = Task("s", 10_000, {"p1": 10}, 10_000,
                 messages=(Message("r", 440, 5_000),))
        r = Task("r", 10_000, {"p3": 10}, 10_000)
        enc = _enc([s, r], arch)
        lo, hi = enc._slot_bounds("k1")
        assert lo == 50
        assert hi == 440 + 10  # max rho + slot overhead (440 bits @ 1 Mbit)

    def test_min_slot_dominates_small_frames(self):
        arch = fig1_arch()
        s = Task("s", 10_000, {"p1": 10}, 10_000,
                 messages=(Message("r", 8, 5_000),))
        r = Task("r", 10_000, {"p3": 10}, 10_000)
        enc = _enc([s, r], arch)
        lo, hi = enc._slot_bounds("k1")
        assert hi == 50  # min_slot wins


class TestMessagePriorities:
    def test_deadline_monotonic_unique_ranks(self):
        arch = fig1_arch()
        s1 = Task("s1", 10_000, {"p1": 10}, 10_000,
                  messages=(Message("r", 100, 3_000),))
        s2 = Task("s2", 10_000, {"p1": 10}, 10_000,
                  messages=(Message("r", 100, 1_000),))
        r = Task("r", 10_000, {"p3": 10}, 10_000)
        enc = _enc([s1, s2, r], arch)
        ranks = enc.msg_rank
        assert ranks[MsgRef("s2", 0)] < ranks[MsgRef("s1", 0)]
        assert len(set(ranks.values())) == len(ranks)


class TestObligationGuards:
    def test_no_guards_without_diagnostics(self):
        arch = fig1_arch()
        t = Task("t", 1000, {"p1": 10}, 1000)
        enc = _enc([t], arch)
        assert enc.obligations == {}

    def test_guard_labels(self):
        arch = fig1_arch()
        a = Task("a", 1000, {"p1": 10, "p2": 10}, 1000,
                 separated_from=frozenset({"b"}),
                 messages=(Message("b", 100, 500),))
        b = Task("b", 1000, {"p1": 10, "p2": 10}, 1000)
        enc = _enc([a, b], arch, diagnostics=True)
        labels = set(enc.obligations)
        assert "deadline:a" in labels
        assert "deadline:b" in labels
        assert "separation:a,b" in labels
        assert "msg-deadline:a/m0" in labels

    def test_same_label_same_guard(self):
        arch = fig1_arch()
        t = Task("t", 1000, {"p1": 10}, 1000)
        enc = _enc([t], arch, diagnostics=True)
        g1 = enc._obligation_guard("deadline:t")
        g2 = enc._obligation_guard("deadline:t")
        assert g1 is g2
