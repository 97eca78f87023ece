"""Tests for interval range inference and width computation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arith.ast import IntConst, IntVar
from repro.arith.ranges import Range, infer_range, width_for


class TestRange:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Range(3, 2)

    def test_add(self):
        assert Range(1, 2).add(Range(10, 20)) == Range(11, 22)

    def test_sub(self):
        assert Range(1, 2).sub(Range(10, 20)) == Range(-19, -8)

    def test_mul_signs(self):
        assert Range(-2, 3).mul(Range(-5, 4)) == Range(-15, 12)

    @given(
        st.integers(-50, 50), st.integers(0, 50),
        st.integers(-50, 50), st.integers(0, 50),
        st.integers(), st.integers(),
    )
    def test_arith_soundness(self, alo, aw, blo, bw, pa, pb):
        ra = Range(alo, alo + aw)
        rb = Range(blo, blo + bw)
        # Pick concrete points inside the ranges.
        x = alo + (pa % (aw + 1))
        y = blo + (pb % (bw + 1))
        for r, v in ((ra.add(rb), x + y), (ra.sub(rb), x - y),
                     (ra.mul(rb), x * y)):
            assert r.lo <= v <= r.hi


class TestWidth:
    @pytest.mark.parametrize(
        "lo,hi,w",
        [
            (0, 0, 1),
            (0, 1, 2),
            (-1, 0, 1),
            (-2, 1, 2),
            (0, 7, 4),      # 7 needs 3 magnitude bits + sign
            (-8, 7, 4),
            (0, 8, 5),
            (-9, 0, 5),
            (0, 1000, 11),
        ],
    )
    def test_widths(self, lo, hi, w):
        assert width_for(Range(lo, hi)) == w

    @given(st.integers(-10**6, 10**6), st.integers(0, 10**6))
    def test_width_covers_range(self, lo, span):
        r = Range(lo, lo + span)
        w = width_for(r)
        assert -(1 << (w - 1)) <= r.lo
        assert r.hi <= (1 << (w - 1)) - 1
        # Minimality: w-1 bits would not suffice (unless w == 1).
        if w > 1:
            assert not (
                -(1 << (w - 2)) <= r.lo and r.hi <= (1 << (w - 2)) - 1
            )


class TestInferRange:
    def test_var_and_const(self):
        v = IntVar("v", 2, 9)
        assert infer_range(v) == Range(2, 9)
        assert infer_range(IntConst(-4)) == Range(-4, -4)

    def test_compound(self):
        x = IntVar("x", 0, 3)
        y = IntVar("y", 1, 2)
        assert infer_range(x + y * 2) == Range(2, 7)
        assert infer_range(x - y) == Range(-2, 2)
        assert infer_range(x * y) == Range(0, 6)

    def test_memoization_by_nid(self):
        x = IntVar("x", 0, 3)
        e = x + x
        cache = {}
        infer_range(e, cache)
        # The cache keys on stable node ids, not id() (which the GC can
        # recycle mid-encode).
        assert e.nid in cache

    def test_unknown_node_raises(self):
        with pytest.raises(TypeError):
            infer_range("not an expression")  # type: ignore[arg-type]
