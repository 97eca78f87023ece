"""Propositional axiomatization of triplets over 2's-complement vectors.

This is the second half of the paper's section 5.1: the arithmetic
triplets produced by :mod:`repro.arith.triplet` are rewritten into
propositional logic "by using a 2's complement -- and thus logarithmic
size -- representation for integer variables and a propositional
axiomatization for the arithmetic operators on that representation".

Circuits:

- addition/subtraction: ripple-carry chains of the full adder of eq. 19,
- multiplication: shift-add partial-product array (works for
  constant*variable and variable*variable operands -- the latter is
  required by the TDMA blocking term of section 3),
- comparisons: signed comparators via the flip-MSB-and-compare-unsigned
  identity, with a Tseitin gate library that constant-folds aggressively
  so comparisons against constants cost almost nothing.

All caches key on ``IntVar.nid`` (process-unique node ids of the
expression IR): unlike ``id()`` keys, a nid can never alias a recycled
address of a garbage-collected expression, so the vector and range
caches stay sound over arbitrarily long incremental encodes.

Range narrowing (``narrow_bits``, on by default): a variable whose range
is non-negative -- nearly every quantity in the paper's model (response
times, slots, priorities) -- never needs its sign bit, and needs only
``hi.bit_length()`` value bits; the remaining bits are hardwired to the
constant-false literal.  The gate library folds constant inputs away, so
every circuit touching the variable shrinks, and the range assertion for
a ``[0, 2^k - 1]`` variable vanishes entirely.

Emission is buffered: the blaster numbers fresh variables from its own
counter and appends each gate's clauses as ``[size, lit0, lit1, ...]``
records to one flat ``array('i')``.  :meth:`Blaster.flush` hands that
buffer to :meth:`repro.sat.solver.Solver.add_clauses`, which reserves
the variables in one bulk step and loads every record in one compiled
pass.  The buffer keeps growing across the caller's operations; the
caller (:class:`repro.arith.solver.IntSolver`) flushes when the engine
is read and around labelled constraints, about once per encoding.  When
``pb_mode`` is enabled the full-adder axioms are emitted as the paper's
pseudo-Boolean pair ``2*cout + s = x + y + cin`` (section 5.1's PB
formulation) instead of CNF; the buffer is flushed before each such PB
constraint so clause and PB order are exactly those of unbuffered
emission.
"""

from __future__ import annotations

import time
from array import array

from repro.arith.ast import IntConst, IntVar
from repro.arith.ranges import Range, width_for
from repro.arith.triplet import TOK_FALSE, TOK_TRUE, ArithDef, BoolDef, CmpDef
from repro.sat.solver import Solver

__all__ = ["Blaster"]


class Blaster:
    """Incremental triplet-to-SAT compiler.

    Keeps per-variable bit vectors and a gate cache so repeated blasting
    of shared subcircuits is free.
    """

    def __init__(
        self,
        solver: Solver,
        pb_mode: bool = False,
        narrow_bits: bool = True,
    ):
        self.solver = solver
        self.pb_mode = pb_mode
        self.narrow_bits = narrow_bits
        #: The constant-true literal; -2 (matches no literal) until the
        #: first use of :attr:`lit_true` creates it.
        self._true_lit = -2
        #: Pending clause records and the variable counter: ids below
        #: ``_head`` were allocated before the buffer's first record,
        #: ids in ``[_head, _next_var)`` after it.
        self._buf = array("i")
        self._emit = self._buf.fromlist
        self._next_var = solver.nvars
        self._head = solver.nvars
        self._vectors: dict[int, list[int]] = {}   # IntVar nid -> bit lits
        self._vec_vars: dict[int, IntVar] = {}     # IntVar nid -> IntVar
        self._token_lit: dict[int, int] = {}       # triplet token -> lit
        self._lit_token: dict[int, int] = {}       # lit base -> token base
        self._and_cache: dict[tuple, int] = {}
        self._or_cache: dict[tuple, int] = {}
        self._xor_cache: dict[tuple, int] = {}
        self._maj_cache: dict[tuple, int] = {}
        self.range_cache: dict[int, Range] = {}
        #: Instrumentation: gates materialized (fresh gate variables),
        #: gate requests served from a cache, and variable bits hardwired
        #: to constants by range narrowing.
        self.gates = 0
        self.gate_hits = 0
        self.narrowed_bits = 0
        #: Seconds spent handing buffered constraints to the solver.
        self.t_load = 0.0

    # ------------------------------------------------------------------
    # Variables and the clause buffer
    # ------------------------------------------------------------------

    def _new_lit(self) -> int:
        """Positive literal of a fresh (pending) variable."""
        v = self._next_var
        self._next_var = v + 1
        if not self._buf:
            self._head = v + 1
        return v << 1

    def _new_lits(self, n: int) -> list[int]:
        """Positive literals of ``n`` fresh (pending) variables."""
        v = self._next_var
        self._next_var = v + n
        if not self._buf:
            self._head = v + n
        return [(v + i) << 1 for i in range(n)]

    def emit_clause(self, lits: list[int]) -> None:
        """Buffer one clause (loaded by the next :meth:`flush`)."""
        self._emit([len(lits), *lits])

    @property
    def pending(self) -> bool:
        """Whether buffered records or unreserved variables wait for
        :meth:`flush`."""
        return bool(self._buf) or self._next_var > self.solver.nvars

    def rebase(self) -> None:
        """Number new variables after the solver's current last one, so
        variables the solver handed out elsewhere since the last
        :meth:`flush` are never reused.  Does nothing while anything is
        pending: the pending numbers already follow the solver's."""
        if not self.pending:
            self._next_var = self._head = self.solver.nvars

    def flush(self) -> None:
        """Reserve the pending variables and load the buffered clauses.

        Variables allocated before the first buffered record are reserved
        first and the rest after the solver drops to level 0 -- the order
        one ``new_var``/``add_clause`` call per request would produce.
        An engine already at level 0 has nothing to drop, so one call
        reserves them all and leaves the same state.
        """
        t0 = time.perf_counter()
        sat = self.solver
        buf = self._buf
        head = self._head
        if buf and sat.trail_lim_n == 0:
            head = sat.nvars
        elif head > sat.nvars:
            sat.new_vars(head - sat.nvars)
        if buf:
            try:
                sat.add_clauses(buf, new_vars=self._next_var - head)
            finally:
                del buf[:]
        self._head = self._next_var
        self.t_load += time.perf_counter() - t0

    def _add_pb(self, lits: list[int], coefs: list[int], bound: int) -> None:
        """Flush, then add an engine-level PB constraint (PB mode)."""
        self.flush()
        t0 = time.perf_counter()
        self.solver.add_pb(lits, coefs, bound)
        self.t_load += time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Constants and token mapping
    # ------------------------------------------------------------------

    @property
    def lit_true(self) -> int:
        """Literal that is constrained true (created lazily)."""
        if self._true_lit < 0:
            t = self._new_lit()
            self._true_lit = t
            self._emit([1, t])
        return self._true_lit

    @property
    def lit_false(self) -> int:
        return self.lit_true ^ 1

    def token_lit(self, tok: int) -> int:
        """SAT literal for a triplet Boolean token."""
        if tok == TOK_TRUE:
            return self.lit_true
        if tok == TOK_FALSE:
            return self.lit_false
        base = self._token_lit.get(tok & ~1)
        if base is None:
            base = self._new_lit()
            self._token_lit[tok & ~1] = base
            self._lit_token[base] = tok & ~1
        return base ^ (tok & 1)

    # ------------------------------------------------------------------
    # Bit vectors
    # ------------------------------------------------------------------

    def vector(self, var: IntVar) -> list[int]:
        """Bit vector (LSB first) of an integer variable; created on first
        use with range constraints asserted for declared variables."""
        vec = self._vectors.get(var.nid)
        if vec is not None:
            return vec
        r = self.range_cache.get(var.nid)
        if r is None:
            r = Range(var.lo, var.hi)
            self.range_cache[var.nid] = r
        w = width_for(r)
        if self.narrow_bits and r.lo >= 0:
            # Non-negative range: the sign bit (and any high bit beyond
            # hi's magnitude) is constant 0.  Hardwiring it shrinks every
            # circuit the variable feeds, because the gate library folds
            # constant inputs.
            nbits = r.hi.bit_length()
            vec = self._new_lits(nbits)
            vec += [self.lit_false] * (w - nbits)
            self.narrowed_bits += w - nbits
            self._vectors[var.nid] = vec
            self._vec_vars[var.nid] = var
            # lo <= var is vacuous for lo == 0; hi >= var is vacuous when
            # hi saturates the narrowed width.
            if r.lo > 0:
                lo_bits = self.const_bits(r.lo, w)
                ge = self._unsigned_le_signed_flip(lo_bits, vec)
                self._emit([1, ge])
            if r.hi != (1 << nbits) - 1:
                hi_bits = self.const_bits(r.hi, w)
                le = self._unsigned_le_signed_flip(vec, hi_bits)
                self._emit([1, le])
            return vec
        vec = self._new_lits(w)
        self._vectors[var.nid] = vec
        self._vec_vars[var.nid] = var
        # Assert lo <= var <= hi unless the width makes it vacuous.
        if r.lo != -(1 << (w - 1)):
            lo_bits = self.const_bits(r.lo, w)
            ge = self._unsigned_le_signed_flip(lo_bits, vec)
            self._emit([1, ge])
        if r.hi != (1 << (w - 1)) - 1:
            hi_bits = self.const_bits(r.hi, w)
            le = self._unsigned_le_signed_flip(vec, hi_bits)
            self._emit([1, le])
        return vec

    def const_bits(self, value: int, w: int) -> list[int]:
        """2's-complement constant as a vector of constant literals."""
        t, f = self.lit_true, self.lit_false
        mask = value & ((1 << w) - 1)
        return [t if (mask >> i) & 1 else f for i in range(w)]

    def extend(self, bits: list[int], w: int) -> list[int]:
        """Sign-extend a vector to width ``w``."""
        if len(bits) >= w:
            return bits[:w]
        return bits + [bits[-1]] * (w - len(bits))

    # ------------------------------------------------------------------
    # Gate library (with eager constant folding)
    # ------------------------------------------------------------------

    def gate_and(self, a: int, b: int) -> int:
        t = self._true_lit
        f = t ^ 1
        if a == f or b == f:
            return f
        if a == t:
            return b
        if b == t:
            return a
        if a == b:
            return a
        if a == b ^ 1:
            return self.lit_false
        key = (a, b) if a < b else (b, a)
        out = self._and_cache.get(key)
        if out is None:
            out = self._new_lit()
            self.gates += 1
            o = out ^ 1
            self._emit([2, o, a, 2, o, b, 3, out, a ^ 1, b ^ 1])
            self._and_cache[key] = out
        else:
            self.gate_hits += 1
        return out

    def gate_or(self, a: int, b: int) -> int:
        return self.gate_and(a ^ 1, b ^ 1) ^ 1

    def gate_xor(self, a: int, b: int) -> int:
        t = self._true_lit
        if a == t:
            return b ^ 1
        if a == t ^ 1:
            return b
        if b == t:
            return a ^ 1
        if b == t ^ 1:
            return a
        if a == b:
            return self.lit_false
        if a == b ^ 1:
            return self.lit_true
        # xor(~a, b) == ~xor(a, b): cache one gate per variable pair on
        # the positive polarities and fold the sign parity into the output.
        parity = (a ^ b) & 1
        pa, pb = a & ~1, b & ~1
        if pa > pb:
            pa, pb = pb, pa
        key = (pa, pb)
        out = self._xor_cache.get(key)
        if out is None:
            out = self._new_lit()
            self.gates += 1
            o = out ^ 1
            na = pa ^ 1
            nb = pb ^ 1
            self._emit([3, o, pa, pb, 3, o, na, nb,
                        3, out, na, pb, 3, out, pa, nb])
            self._xor_cache[key] = out
        else:
            self.gate_hits += 1
        return out ^ parity

    def gate_and_many(self, bits: list[int]) -> int:
        """n-ary AND in one Tseitin gate (n+1 clauses, one variable)
        instead of a chain of binary ANDs (3 clauses and a variable per
        link)."""
        t = self._true_lit
        f = t ^ 1
        seen: set[int] = set()
        uniq: list[int] = []
        for b in bits:
            if b == f or b ^ 1 in seen:
                return self.lit_false
            if b == t or b in seen:
                continue
            seen.add(b)
            uniq.append(b)
        if not uniq:
            return self.lit_true
        if len(uniq) == 1:
            return uniq[0]
        if len(uniq) == 2:
            return self.gate_and(uniq[0], uniq[1])
        key = tuple(sorted(uniq))
        out = self._and_cache.get(key)
        if out is None:
            out = self._new_lit()
            self.gates += 1
            o = out ^ 1
            rec: list[int] = []
            for b in uniq:
                rec += (2, o, b)
            rec.append(len(uniq) + 1)
            rec.append(out)
            rec += [b ^ 1 for b in uniq]
            self._emit(rec)
            self._and_cache[key] = out
        else:
            self.gate_hits += 1
        return out

    def gate_maj(self, a: int, b: int, c: int) -> int:
        """Majority of three literals in 6 clauses and one variable.

        The carry-out of a full adder and each step of a ripple
        comparator are majority functions; encoding them directly beats
        composing them from and/or/ite gates by roughly 2x in clauses
        and 3x in auxiliary variables.
        """
        t = self._true_lit
        f = t ^ 1
        if a == t:
            return self.gate_or(b, c)
        if a == f:
            return self.gate_and(b, c)
        if b == t:
            return self.gate_or(c, a)
        if b == f:
            return self.gate_and(c, a)
        if c == t:
            return self.gate_or(a, b)
        if c == f:
            return self.gate_and(a, b)
        if a == b or a == c:
            return a
        if b == c:
            return b
        if a == b ^ 1:
            return c
        if a == c ^ 1:
            return b
        if b == c ^ 1:
            return a
        if a < b:
            lo, hi = a, b
        else:
            lo, hi = b, a
        if c < lo:
            key = (c, lo, hi)
        elif c < hi:
            key = (lo, c, hi)
        else:
            key = (lo, hi, c)
        out = self._maj_cache.get(key)
        if out is None:
            out = self._new_lit()
            self.gates += 1
            o = out ^ 1
            na, nb, nc = a ^ 1, b ^ 1, c ^ 1
            self._emit([3, o, a, b, 3, o, a, c, 3, o, b, c,
                        3, out, na, nb, 3, out, na, nc, 3, out, nb, nc])
            self._maj_cache[key] = out
        else:
            self.gate_hits += 1
        return out

    def gate_iff(self, a: int, b: int) -> int:
        return self.gate_xor(a, b) ^ 1

    def full_adder(self, x: int, y: int, cin: int) -> tuple[int, int]:
        """Full adder (paper eq. 19): returns (sum, carry-out).

        In ``pb_mode`` the carry is defined by the pseudo-Boolean pair
        ``2*cout + ~x + ~y + ~cin >= 2`` / ``2*~cout + x + y + cin >= 2``
        exactly as the paper describes for GOBLIN; otherwise by the CNF
        majority gate.
        """
        s = self.gate_xor(self.gate_xor(x, y), cin)
        if self.pb_mode:
            t = self._true_lit
            f = t ^ 1
            if (x != t and x != f and y != t and y != f
                    and cin != t and cin != f):
                cout = self._new_lit()
                self.gates += 1
                # cout <-> (x + y + cin >= 2), as two PB constraints.
                self._add_pb([cout ^ 1, x, y, cin], [2, 1, 1, 1], 2)
                self._add_pb([cout, x ^ 1, y ^ 1, cin ^ 1], [2, 1, 1, 1], 2)
                return s, cout
        return s, self.gate_maj(x, y, cin)

    # ------------------------------------------------------------------
    # Arithmetic circuits
    # ------------------------------------------------------------------

    def add_vec(
        self, x: list[int], y: list[int], w: int, cin: int | None = None
    ) -> list[int]:
        """w-bit sum of sign-extended x and y (with optional carry-in)."""
        x = self.extend(x, w)
        y = self.extend(y, w)
        carry = cin if cin is not None else self.lit_false
        out = []
        for i in range(w):
            s, carry = self.full_adder(x[i], y[i], carry)
            out.append(s)
        return out

    def sub_vec(self, x: list[int], y: list[int], w: int) -> list[int]:
        """w-bit difference via x + ~y + 1."""
        x = self.extend(x, w)
        y = [b ^ 1 for b in self.extend(y, w)]
        return self.add_vec(x, y, w, cin=self.lit_true)

    def mul_vec(self, x: list[int], y: list[int], w: int) -> list[int]:
        """w-bit product (mod 2^w) of sign-extended operands.

        2's-complement multiplication mod 2^w is exact whenever the true
        product fits in w bits, which range inference guarantees.
        """
        x = self.extend(x, w)
        y = self.extend(y, w)
        # Accumulate partial products x_i ? (y << i) : 0.
        acc = [self.lit_false] * w
        f = self._true_lit ^ 1
        for i in range(w):
            xi = x[i]
            if xi == f:
                continue
            partial = [self.lit_false] * i + [
                self.gate_and(xi, y[j]) for j in range(w - i)
            ]
            acc = self.add_vec(acc, partial, w)
        return acc

    # ------------------------------------------------------------------
    # Comparators
    # ------------------------------------------------------------------

    def _unsigned_lt(self, x: list[int], y: list[int]) -> int:
        """Literal for unsigned x < y (equal widths).

        One ripple step per bit: ``lt_i = (~x_i & y_i) | ((x_i <-> y_i)
        & lt_{i-1})``, which is exactly ``majority(~x_i, y_i, lt_{i-1})``
        -- a single 6-clause gate per bit.
        """
        lt = self.lit_false
        for xi, yi in zip(x, y):  # LSB to MSB
            lt = self.gate_maj(xi ^ 1, yi, lt)
        return lt

    def _unsigned_le_signed_flip(self, x: list[int], y: list[int]) -> int:
        """Literal for signed x <= y via MSB flip + unsigned compare."""
        w = max(len(x), len(y))
        x = self.extend(x, w)
        y = self.extend(y, w)
        fx = x[:-1] + [x[-1] ^ 1]
        fy = y[:-1] + [y[-1] ^ 1]
        return self._unsigned_lt(fy, fx) ^ 1

    def cmp_lit(self, op: str, x: list[int], y: list[int]) -> int:
        """Literal for a signed comparison of two vectors."""
        w = max(len(x), len(y))
        x = self.extend(x, w)
        y = self.extend(y, w)
        if op == "==":
            return self.gate_and_many(
                [self.gate_iff(xi, yi) for xi, yi in zip(x, y)]
            )
        fx = x[:-1] + [x[-1] ^ 1]
        fy = y[:-1] + [y[-1] ^ 1]
        if op == "<":
            return self._unsigned_lt(fx, fy)
        if op == "<=":
            return self._unsigned_lt(fy, fx) ^ 1
        raise ValueError(f"unknown comparison op {op!r}")

    # ------------------------------------------------------------------
    # Triplet encoding
    # ------------------------------------------------------------------

    def _atom_bits(self, atom, w: int | None = None) -> list[int]:
        if isinstance(atom, IntConst):
            r = Range(atom.value, atom.value)
            width = w if w is not None else width_for(r)
            return self.const_bits(atom.value, max(width, width_for(r)))
        assert isinstance(atom, IntVar)
        return self.vector(atom)

    def _equate(self, xs: list[int], ys: list[int]) -> None:
        """Assert xs[i] <-> ys[i], folding constant bits into unit
        clauses (a narrowed vector has constant high bits; the generic
        two-clause equivalence would emit vacuous or single-literal
        clauses the long way around)."""
        emit = self._emit
        t = self._true_lit
        f = t ^ 1
        for a, b in zip(xs, ys):
            if a == b:
                continue
            a_const = a == t or a == f
            if a_const and (b == t or b == f):
                # Distinct constants: the instance is UNSAT.
                emit([1, f])
                continue
            if a_const:
                emit([1, b if a == t else b ^ 1])
                continue
            if b == t or b == f:
                emit([1, a if b == t else a ^ 1])
                continue
            emit([2, a ^ 1, b, 2, a, b ^ 1])

    def encode_cmp_def(self, d: CmpDef) -> None:
        """Encode ``token <-> (a OP b)``.

        When the token has no SAT literal yet (the common case: a
        definition is blasted before anything references its token), the
        token is bound directly to the comparator's output literal --
        no fresh variable, no equivalence clauses.
        """
        xa = self._atom_bits(d.a)
        xb = self._atom_bits(d.b)
        lit = self.cmp_lit(d.op, xa, xb)
        if d.out & ~1 not in self._token_lit:
            # d.out is a freshly allocated token, always positive parity.
            self._token_lit[d.out & ~1] = lit
            return
        out = self.token_lit(d.out)
        self._emit([2, out ^ 1, lit, 2, out, lit ^ 1])

    def encode_arith_def(self, d: ArithDef) -> None:
        """Encode ``out = a OP b`` by building the circuit and equating it
        with out's vector bit by bit."""
        out_vec = self.vector(d.out)
        w = len(out_vec)
        xa = self.extend(self._atom_bits(d.a, w), w)
        xb = self.extend(self._atom_bits(d.b, w), w)
        if d.op == "+":
            res = self.add_vec(xa, xb, w)
        elif d.op == "-":
            res = self.sub_vec(xa, xb, w)
        elif d.op == "*":
            res = self.mul_vec(xa, xb, w)
        else:
            raise ValueError(f"unknown arithmetic op {d.op!r}")
        self._equate(out_vec, res)

    def encode_bool_def(self, d: BoolDef) -> None:
        """Tseitin encoding of ``token <-> AND/OR(args)``."""
        out = self.token_lit(d.out)
        args = [self.token_lit(t) for t in d.args]
        if d.op == "and":
            head, inv = out ^ 1, 0
        elif d.op == "or":
            head, inv = out, 1
        else:
            raise ValueError(f"unknown Boolean op {d.op!r}")
        # and: ~out | a per argument, then out | ~a1 | ~a2 ...
        # or:   out | ~a per argument, then ~out | a1 | a2 ...
        rec: list[int] = []
        for a in args:
            rec += (2, head, a ^ inv)
        rec.append(len(args) + 1)
        rec.append(head ^ 1)
        rec += [a ^ inv ^ 1 for a in args]
        self._emit(rec)

    # ------------------------------------------------------------------
    # Model readback
    # ------------------------------------------------------------------

    def decode_var(self, var: IntVar) -> int:
        """Integer value of ``var`` in the solver's current model."""
        vec = self._vectors.get(var.nid)
        if vec is None:
            # Never blasted: unconstrained, any in-range value works.
            return var.lo
        w = len(vec)
        value = 0
        for i, lit in enumerate(vec):
            if self.solver.model_value(lit):
                value |= 1 << i
        if value >= 1 << (w - 1):
            value -= 1 << w
        return value
