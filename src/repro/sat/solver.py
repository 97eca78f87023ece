"""Conflict-driven clause-learning SAT engine with native PB propagation.

The engine follows the Chaff/MiniSat lineage the paper cites [11, 12]:

- two-watched-literal propagation for clauses,
- counter-based propagation for pseudo-Boolean (PB) constraints
  ``sum a_i * l_i >= b`` (the paper's GOBLIN solver [8] is a PB-native
  DPLL engine, so PB constraints are first-class here too),
- first-UIP conflict analysis with recursive clause minimization
  (inside the backend's ``search``),
- VSIDS decision heuristic with phase saving,
- Luby-sequence restarts and activity-based learnt-clause deletion,
- solving under assumptions (used to retract objective bounds between
  the binary-search probes of :mod:`repro.core.optimize` while *keeping*
  learnt clauses -- the incremental-reuse idea of the paper's section 7),
- cooperative budgets: ``solve(budget=...)`` charges a
  :class:`repro.robust.budget.Budget` on every conflict and decision and
  raises :class:`repro.robust.budget.BudgetExpired` when it runs out,
  after backtracking to level 0 so the solver stays usable.

Performance architecture (PR 7; see ``docs/SOLVER.md``): all solver
state lives in flat, buffer-protocol arrays --

- a packed int32 *clause arena* (``[size, lit0, lit1, ...]`` records
  addressed by clause id through ``cla_off``), with per-clause flags,
  activities and provenance tags in parallel arrays,
- index-linked watcher lists (``watch_head``/``watch_next``; attach is
  O(1) push-front, detach is an O(1) dead-flag with lazy unlinking --
  no ``list.remove`` scans anywhere),
- a PB term slab (``pb_lits``/``pb_coefs``/``pb_owner``) with linked
  per-literal term lists driving O(1)-per-term slack updates,
- typed arrays for assignments, levels, trail, reasons, phases and
  VSIDS activities.

The CDCL loop itself (propagate, analyze, learn, backjump, decide),
the trail unwind and the level-0 clause loader with its unit
propagation (:meth:`Solver.add_clauses`) run behind a swappable backend
(:mod:`repro.sat.core`): a pure-Python reference and a C core compiled
on demand that works on the *same* arrays through raw pointers.  The
backend's ``search`` returns to :meth:`Solver.solve` only where the
solver has work to do -- an answer, a restart, a learnt-DB reduction, a
governor tick, a budget step that might expire, a full learnt buffer.
Both backends execute the identical algorithm in the identical order,
so trails, learnt clauses and DRUP proof logs are bit-identical.
Select with ``REPRO_SAT_BACKEND`` / CLI ``--backend`` /
``Solver(backend=...)``.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from collections.abc import MutableMapping
from dataclasses import dataclass

from repro.governor import core as _governor
from repro.robust.budget import Budget, BudgetExpired
from repro.sat.core import get_backend
from repro.sat.core.pure import (
    LOAD_CONFLICT,
    LOAD_DONE,
    LOAD_EMPTY,
    RESUME_ANALYZE,
    RESUME_BRANCH,
    SEARCH_BUDGET,
    SEARCH_GOVERNOR,
    SEARCH_REDUCE,
    SEARCH_RESTART,
    SEARCH_ROOM,
    SEARCH_SAT,
    SEARCH_UNSAT,
    SearchState,
    optional_numpy,
    reason_lits,
)
from repro.sat.literals import (
    VAL_TRUE,
    VAL_UNASSIGNED,
    neg,
)

__all__ = ["Solver", "SolverStats", "ClauseView", "PBView", "EngineRecord"]

#: ``reason`` array sentinel: no reason (decision / assumption / unit).
REASON_NONE = -1

#: ``SearchState.budget_room`` without a budget: never reached.
_NO_BUDGET = 1 << 62


def _pb_ref(i: int) -> int:
    """Encode PB constraint index ``i`` as a (negative) reason ref."""
    return -(i + 2)


def _iota(start: int, stop: int) -> array:
    """``array('i', range(start, stop))``, built in bulk for long runs
    (element-by-element filling costs about 70 ns per entry)."""
    np = optional_numpy() if stop - start > 32 else None
    if np is not None:
        out = array("i")
        out.frombytes(np.arange(start, stop, dtype=np.int32).tobytes())
        return out
    return array("i", range(start, stop))


class TagMap(MutableMapping):
    """Clause id -> provenance tag, as one int32 tag number per clause id
    (-1 untagged) and a list of the distinct tags: 4 bytes a clause,
    where a dict takes about 60 bytes a tagged clause (key object and
    table slot), and an encoding tags tens of thousands of clauses."""

    def __init__(self):
        self._ids = array("i")
        self._names: list[str] = []
        self._number: dict[str, int] = {}

    def _tag_number(self, tag: str) -> int:
        i = self._number.get(tag)
        if i is None:
            i = self._number[tag] = len(self._names)
            self._names.append(tag)
        return i

    def _reserve(self, n: int) -> None:
        short = n - len(self._ids)
        if short > 0:
            self._ids.frombytes(b"\xff" * (4 * short))  # -1 each

    def tag_range(self, lo: int, hi: int, tag: str) -> None:
        """Tag clause ids ``lo..hi-1``."""
        self._reserve(hi)
        self._ids[lo:hi] = array("i", [self._tag_number(tag)]) * (hi - lo)

    def counts(self) -> dict[str, int]:
        """Number of clauses per tag."""
        per = Counter(self._ids)
        return {name: per[i] for i, name in enumerate(self._names)
                if per[i]}

    def __getitem__(self, cid: int) -> str:
        if 0 <= cid < len(self._ids) and self._ids[cid] >= 0:
            return self._names[self._ids[cid]]
        raise KeyError(cid)

    def __setitem__(self, cid: int, tag: str) -> None:
        self._reserve(cid + 1)
        self._ids[cid] = self._tag_number(tag)

    def __delitem__(self, cid: int) -> None:
        self[cid]  # KeyError when untagged
        self._ids[cid] = -1

    def __iter__(self):
        return (cid for cid, i in enumerate(self._ids) if i >= 0)

    def __len__(self) -> int:
        return len(self._ids) - self._ids.count(-1)


class EngineRecord:
    """The engine calls that built a formula, in call order, as flat
    arrays that :meth:`replay` makes again on a fresh :class:`Solver`.

    While a record is set as :attr:`Solver.recorder`, every
    :meth:`Solver.new_var`/:meth:`~Solver.new_vars`,
    :meth:`~Solver.add_clauses` (with the provenance tag active at the
    call), :meth:`~Solver.add_pb` and :meth:`~Solver.boost_activity`
    call is appended to :attr:`ops`: ``[NEW_VARS, n]``, ``[CLAUSES,
    tag, new_vars, words, record words...]``, ``[PB, tag, n, lits...]``
    (bound and coefficients in :attr:`wide`) and ``[BOOST, n, vars...]``
    (the amount in :attr:`amounts`).  Replaying the record into a fresh
    solver makes the same calls in the same order, so the solver ends
    in byte-identical state, at clause-loader speed.
    """

    NEW_VARS, CLAUSES, PB, BOOST = range(4)

    def __init__(self):
        self.ops = array("i")
        self.wide = array("q")
        self.amounts = array("d")
        #: Provenance tags by index; ``-1`` in :attr:`ops` is no tag.
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}

    def _tag(self, tag: str | None) -> int:
        if tag is None:
            return -1
        i = self._tag_ids.get(tag)
        if i is None:
            i = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return i

    def replay(self, s: "Solver") -> None:
        """Make the recorded calls on ``s``, a fresh solver."""
        ops, wide, amounts, tags = self.ops, self.wide, self.amounts, \
            self.tags
        i = wi = ai = 0
        n = len(ops)
        try:
            while i < n:
                op = ops[i]
                if op == self.CLAUSES:
                    tag, nv, words = ops[i + 1], ops[i + 2], ops[i + 3]
                    s._active_tag = tags[tag] if tag >= 0 else None
                    i += 4
                    s.add_clauses(ops[i:i + words], new_vars=nv)
                    i += words
                elif op == self.NEW_VARS:
                    s.new_vars(ops[i + 1])
                    i += 2
                elif op == self.BOOST:
                    k = ops[i + 1]
                    s.boost_activity(ops[i + 2:i + 2 + k], amounts[ai])
                    ai += 1
                    i += 2 + k
                elif op == self.PB:
                    tag, k = ops[i + 1], ops[i + 2]
                    s._active_tag = tags[tag] if tag >= 0 else None
                    s.add_pb(list(ops[i + 3:i + 3 + k]),
                             list(wide[wi + 1:wi + 1 + k]), wide[wi])
                    wi += 1 + k
                    i += 3 + k
                else:
                    raise ValueError(f"bad engine record op {op} at {i}")
        finally:
            s._active_tag = None


class ClauseView:
    """Lightweight read view of one packed clause.

    Kept API-compatible with the pre-arena ``Clause`` objects
    (``lits``/``learnt``/``activity``/``tag``) for the export paths and
    tests that iterate :attr:`Solver.clauses`; the engine itself only
    ever touches the arena.
    """

    __slots__ = ("_s", "cid")

    def __init__(self, solver: "Solver", cid: int):
        self._s = solver
        self.cid = cid

    @property
    def lits(self) -> list[int]:
        s = self._s
        off = s.cla_off[self.cid]
        return list(s.arena[off + 1: off + 1 + s.arena[off]])

    @property
    def learnt(self) -> bool:
        return bool(self._s.cla_flags[self.cid] & 1)

    @property
    def activity(self) -> float:
        return self._s.cla_act[self.cid]

    @property
    def tag(self) -> str | None:
        return self._s.cla_tag.get(self.cid)

    def __len__(self) -> int:
        return self._s.arena[self._s.cla_off[self.cid]]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "L" if self.learnt else "P"
        return f"Clause<{kind}:{self.lits}>"


class PBView:
    """Read view of one PB constraint ``sum coefs[i]*lits[i] >= bound``
    (post level-0 folding and coefficient saturation)."""

    __slots__ = ("_s", "idx")

    def __init__(self, solver: "Solver", idx: int):
        self._s = solver
        self.idx = idx

    @property
    def lits(self) -> list[int]:
        s = self._s
        off = s.pb_off[self.idx]
        return list(s.pb_lits[off: off + s.pb_len[self.idx]])

    @property
    def coefs(self) -> list[int]:
        s = self._s
        off = s.pb_off[self.idx]
        return list(s.pb_coefs[off: off + s.pb_len[self.idx]])

    @property
    def bound(self) -> int:
        return self._s.pb_bound[self.idx]

    @property
    def slack(self) -> int:
        return self._s.pb_slack[self.idx]

    @property
    def tag(self) -> str | None:
        return self._s.pb_tag.get(self.idx)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        terms = " + ".join(f"{c}*x{l}" for c, l in zip(self.coefs, self.lits))
        return f"PB<{terms} >= {self.bound}>"


class _TagScope:
    """Context manager backing :meth:`Solver.tagged` (nestable)."""

    __slots__ = ("solver", "label", "prev")

    def __init__(self, solver: "Solver", label: str | None):
        self.solver = solver
        self.label = label
        self.prev: str | None = None

    def __enter__(self) -> "_TagScope":
        self.prev = self.solver._active_tag
        if self.label is not None:
            self.solver._active_tag = self.label
        return self

    def __exit__(self, *exc) -> None:
        self.solver._active_tag = self.prev


@dataclass
class SolverStats:
    """Search statistics, matching the counters the paper reports
    (variables / literals) plus the usual CDCL counters."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learnt_clauses: int = 0
    learnt_literals: int = 0
    deleted_clauses: int = 0
    max_trail: int = 0
    solve_calls: int = 0
    #: Cumulative wall time inside :meth:`Solver.solve` and the active
    #: propagation backend name -- the raw-throughput counters behind
    #: ``props_per_sec`` in the ``--stats`` block.
    solve_seconds: float = 0.0
    backend: str = ""
    #: Calls into the backend's ``search`` (each returns at a restart, a
    #: reduction, a governor tick, a budget step, a learnt-room refill
    #: or an answer), and the VSIDS variable / clause activity rescales.
    search_calls: int = 0
    var_rescales: int = 0
    cla_rescales: int = 0

    def props_per_sec(self) -> float:
        """Propagation throughput over the cumulative solve time."""
        if self.solve_seconds <= 0.0:
            return 0.0
        return self.propagations / self.solve_seconds

    def snapshot(self) -> dict:
        """Return the counters as a plain dict (for reporting tables)."""
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "restarts": self.restarts,
            "learnt_clauses": self.learnt_clauses,
            "learnt_literals": self.learnt_literals,
            "deleted_clauses": self.deleted_clauses,
            "max_trail": self.max_trail,
            "solve_calls": self.solve_calls,
            "solve_seconds": round(self.solve_seconds, 6),
            "props_per_sec": round(self.props_per_sec(), 1),
            "backend": self.backend,
            "search_calls": self.search_calls,
            "var_rescales": self.var_rescales,
            "cla_rescales": self.cla_rescales,
        }


#: Conflicts per unit of the Luby restart sequence.
LUBY_BASE = 128


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    1,1,2,1,1,2,4,... (MiniSat's formulation, power base 2)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """CDCL SAT solver with clause and pseudo-Boolean constraints.

    Typical use::

        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([mklit(a), mklit(b)])
        s.add_pb([mklit(a), mklit(b)], [1, 1], 1)     # at-least-one
        if s.solve():
            model = s.model()        # list of bools indexed by variable

    ``solve(assumptions=...)`` solves under temporary unit assumptions;
    learnt clauses persist across calls, which implements the
    learned-knowledge reuse between binary-search probes described in
    section 7 of the paper.

    ``backend`` selects the propagation core (``auto``/``pure``/``fast``,
    default: the process default -- see :mod:`repro.sat.core`).
    """

    VAR_DECAY = 1.0 / 0.95
    CLA_DECAY = 1.0 / 0.999
    RESCALE_LIMIT = 1e100

    def __init__(self, backend: str | None = None):
        self.core = get_backend(backend)
        self.nvars = 0
        # Per-variable state (typed arrays; indexed by var).
        self.assigns = array("b")      # VAL_* per variable
        self.level = array("i")
        self.trail_pos = array("i")    # trail index of the assignment
        self.reason = array("i")       # ref: -1 none, >=0 cid, <=-2 PB
        self.activity = array("d")
        self.saved_phase = array("b")
        self._seen = array("b")
        # Conflict-analysis scratch for the compiled core: learnt output,
        # seen-variable list, minimization stack, PB implicate.  One slot
        # per variable (the PB buffer also fits the longest constraint),
        # so no conflict allocates.
        self._learnt_buf = array("i")
        self._clear_buf = array("i")
        self._stack_buf = array("i")
        self._pbr_buf = array("i")
        # Trail: preallocated (one slot per variable), explicit length.
        self.trail = array("i")
        self.trail_n = 0
        # Level starts: one slot per variable plus a spare, and one per
        # assumption while solving (satisfied ones open empty levels).
        self.trail_lim = array("i", [0])
        self.trail_lim_n = 0
        self.qhead = 0
        # Clause arena: packed [size, lit0, lit1, ...] records addressed
        # by clause id (cid) through cla_off; flags bit0=learnt bit1=dead.
        self.arena = array("i")
        self.cla_off = array("i")
        self.cla_flags = array("b")
        self.cla_act = array("d")
        self.cla_tag = TagMap()
        self._problem_cids = array("i")
        self._n_problem_lits = 0       # literals over _problem_cids
        self._learnt_cids: list[int] = []
        self._dead_lits = 0            # reclaimable arena words
        # Watcher lists: nodes 2*cid / 2*cid+1 singly linked per literal.
        self.watch_head = array("i")
        self.watch_next = array("i")
        # PB constraints: term slab + per-constraint counters; terms are
        # linked per falsifying literal for O(1) slack updates.
        self.pb_lits = array("i")
        self.pb_coefs = array("q")
        self.pb_owner = array("i")
        self.pb_off = array("i")
        self.pb_len = array("i")
        self.pb_bound = array("q")
        self.pb_slack = array("q")
        self.pb_maxcoef = array("q")
        self.pb_watch_head = array("i")
        self.pb_watch_next = array("i")
        self.pb_tag: dict[int, str] = {}
        self._n_pbs = 0
        # Heuristics.
        self.var_inc = 1.0
        self.cla_inc = 1.0
        # Indexed binary max-heap of vars by activity; capacity is always
        # nvars (one slot reserved per new_var) so the compiled backend
        # can insert without growing the buffer.  heap_n is the live size.
        self.order_heap = array("i")
        self.heap_pos = array("i")        # var -> heap index or -1
        self.heap_n = 0
        self.ok = True                    # False once UNSAT at level 0
        self._model: list[bool] = []      # snapshot of the last SAT answer
        #: After an UNSAT answer under assumptions: the subset of the
        #: assumption literals that already suffices for unsatisfiability
        #: (the assumption core; empty when the problem is UNSAT outright).
        self.conflict_core: list[int] = []
        self.stats = SolverStats()
        self.stats.backend = self.core.name
        self.max_learnts = 4000.0
        self.learnt_growth = 1.15
        #: DRUP-style proof log (see :mod:`repro.sat.proof`); None (the
        #: default) keeps every hot path free of logging overhead.
        self.proof = None
        #: Provenance label applied to constraints added while a
        #: :meth:`tagged` block is active.
        self._active_tag: str | None = None
        #: Called as ``learn_hook(learnt, bt)`` with every learnt clause
        #: (a fresh list) and its backjump level, in conflict order.  The
        #: calls happen when the backend's search returns, not at the
        #: conflict, so the hook must not read assignment state.
        #: Search observers (the search-identity digest) hook in here;
        #: None keeps learnt clauses out of the record buffer.
        self.learn_hook = None
        #: Decisions until the next resource-governor pressure check
        #: (only decremented while a governor is installed).
        self._gov_countdown = 0
        #: :class:`EngineRecord` that constraint-building calls are
        #: appended to (formula templates); None records nothing.
        self.recorder: EngineRecord | None = None

    # ------------------------------------------------------------------
    # Compat views over the arenas (export paths, introspection, tests)
    # ------------------------------------------------------------------

    @property
    def clauses(self) -> list[ClauseView]:
        """Views of the live problem clauses (insertion order)."""
        return [ClauseView(self, cid) for cid in self._problem_cids]

    @property
    def learnts(self) -> list[ClauseView]:
        """Views of the live learnt clauses (insertion order)."""
        return [ClauseView(self, cid) for cid in self._learnt_cids]

    @property
    def pbs(self) -> list[PBView]:
        """Views of the PB constraints (insertion order)."""
        return [PBView(self, i) for i in range(self._n_pbs)]

    # ------------------------------------------------------------------
    # Proof logging / provenance
    # ------------------------------------------------------------------

    def start_proof(self):
        """Begin DRUP-style proof logging and return the ProofLog.

        The current database (clauses, PB constraints, level-0 facts) is
        snapshotted as proof *inputs*, so the log is self-contained no
        matter when logging starts.  Learnt clauses already present are
        recorded as inputs too -- i.e. a proof started mid-search
        certifies unsatisfiability of the database *including* what the
        solver had derived so far; start logging before the first
        ``solve()`` for a certificate over the original constraints only.
        """
        from repro.sat.proof import ProofLog

        log = ProofLog()
        self._cancel_until(0)
        # One flat block of signed DIMACS words, not a tuple per clause
        # (the snapshot is a measurable share of every certified solve).
        # Engine literals go through one table of shared ints, mapped
        # over the arena once.
        n = self.nvars
        dimacs = [0] * (2 * n + 2)
        dimacs[0::2] = range(1, n + 2)
        dimacs[1::2] = range(-1, -n - 2, -1)
        arena = self.arena
        cla_off = self.cla_off
        cids = self._problem_cids
        words = list(map(dimacs.__getitem__, arena))
        if (not self._learnt_cids
                and len(arena) == self._n_problem_lits + len(cids)):
            # The arena holds the problem records alone, in clause-id
            # order (it only grows, and compaction keeps that order):
            # the mapped arena is the block once its size words are back.
            for off in map(cla_off.__getitem__, cids):
                words[off] = arena[off]
        else:
            # Clause ids, not arena order: learnt and dead records may
            # sit between problem clauses.
            mapped, words = words, []
            for cid in cids.tolist() + self._learnt_cids:
                off = cla_off[cid]
                end = off + 1 + arena[off]
                words.append(arena[off])
                words += mapped[off + 1:end]
        split = len(words)
        units = [1] * (2 * self.trail_n)
        units[1::2] = map(dimacs.__getitem__, self.trail[:self.trail_n])
        words += units
        if not self.ok:
            words.append(0)
        records = (len(cids) + len(self._learnt_cids) + self.trail_n
                   + (not self.ok))
        log.log_snapshot(
            array("i", words), split, records,
            [(list(self.pb_lits[off:off + ln]),
              list(self.pb_coefs[off:off + ln]), bound)
             for off, ln, bound in zip(self.pb_off, self.pb_len,
                                       self.pb_bound)],
        )
        self.proof = log
        return log

    def tagged(self, label: str | None):
        """Context manager: constraints added inside the block carry
        ``label`` as their provenance tag (:attr:`ClauseView.tag` /
        :attr:`PBView.tag`), mapping engine-level constraints back to
        named model obligations for infeasibility diagnosis."""
        return _TagScope(self, label)

    def tag_counts(self) -> dict[str, int]:
        """Number of stored clauses and PB constraints per provenance
        tag (untagged constraints are not counted)."""
        out = self.cla_tag.counts()
        for tag in self.pb_tag.values():
            out[tag] = out.get(tag, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Variable / constraint creation
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its index."""
        if self.recorder is not None:
            self.recorder.ops.extend((EngineRecord.NEW_VARS, 1))
        v = self.nvars
        self.nvars += 1
        self.assigns.append(VAL_UNASSIGNED)
        self.level.append(-1)
        self.trail_pos.append(-1)
        self.reason.append(REASON_NONE)
        self.activity.append(0.0)
        self.saved_phase.append(0)
        self._seen.append(0)
        for buf in self._scratch():
            buf.append(0)
        self.trail.append(0)           # reserve the trail slot
        self.trail_lim.append(0)
        self.watch_head.append(-1)
        self.watch_head.append(-1)
        self.pb_watch_head.append(-1)
        self.pb_watch_head.append(-1)
        self.heap_pos.append(-1)
        self.order_heap.append(-1)     # reserve the capacity slot
        self._heap_insert(v)
        return v

    def new_vars(self, n: int) -> list[int]:
        """Allocate ``n`` fresh variables in one bulk step.

        Byte-for-byte the state ``n`` calls to :meth:`new_var` leave:
        each per-variable array grows by one ``extend`` and the heap
        slots are filled by slice, which is exact because a fresh
        variable's activity is 0 and :meth:`_heap_sift_up` stops at the
        first parent with ``act >= 0`` -- every parent, since activities
        never go negative.
        """
        v0 = self.nvars
        if n <= 0:
            return []
        if self.recorder is not None:
            self.recorder.ops.extend((EngineRecord.NEW_VARS, n))
        self._grow(n)
        return list(range(v0, v0 + n))

    def _grow(self, n: int) -> None:
        """The unrecorded body of :meth:`new_vars` (``n > 0``)."""
        v0 = self.nvars
        self.nvars = v0 + n
        self.assigns.extend(array("b", [VAL_UNASSIGNED]) * n)
        minus = array("i", [-1]) * n
        self.level.extend(minus)
        self.trail_pos.extend(minus)
        self.reason.extend(array("i", [REASON_NONE]) * n)
        self.activity.frombytes(bytes(8 * n))
        self.saved_phase.frombytes(bytes(n))
        self._seen.frombytes(bytes(n))
        for buf in self._scratch():
            buf.frombytes(bytes(4 * n))
        self.trail.frombytes(bytes(4 * n))  # reserve the trail slots
        self.trail_lim.frombytes(bytes(4 * n))
        self.watch_head.extend(minus)
        self.watch_head.extend(minus)
        self.pb_watch_head.extend(minus)
        self.pb_watch_head.extend(minus)
        h = self.heap_n
        self.heap_pos.extend(_iota(h, h + n))
        self.order_heap.extend(minus)      # reserve the capacity slots
        self.order_heap[h:h + n] = _iota(v0, v0 + n)
        self.heap_n = h + n

    def _scratch(self) -> tuple[array, ...]:
        return (self._learnt_buf, self._clear_buf, self._stack_buf,
                self._pbr_buf)

    def value_lit(self, lit: int) -> int:
        """Current value of a literal (VAL_TRUE/VAL_FALSE/VAL_UNASSIGNED)."""
        v = self.assigns[lit >> 1]
        if v == VAL_UNASSIGNED:
            return VAL_UNASSIGNED
        return v ^ (lit & 1)

    def add_clause(self, lits: list[int]) -> bool:
        """Add a problem clause. Returns False if the solver became UNSAT.

        Must be called at decision level 0 (the standard incremental-SAT
        restriction). Performs the usual simplifications: drops false and
        duplicate literals, discards tautologies and satisfied clauses.
        A one-record call into :meth:`add_clauses`.
        """
        try:
            rec = array("i", lits)
        except OverflowError:
            raise ValueError(f"clause {list(lits)} has an out-of-range "
                             f"literal") from None
        rec.insert(0, len(rec))
        return self.add_clauses(rec)

    def add_clauses(self, buf: array, new_vars: int = 0) -> bool:
        """Add problem clauses from a flat int32 buffer of
        ``[size, lit0, lit1, ...]`` records, in order.

        Each record gets exactly the treatment of one :meth:`add_clause`
        call (validation, level-0 simplification, unit propagation,
        proof logging, the active provenance tag); the per-clause loop,
        unit propagation included, runs in the backend's
        ``load_clauses``, which hands control back only when the batch
        is done, UNSAT, or malformed.  ``new_vars`` fresh variables are
        allocated after dropping to level 0 and before loading -- the
        order interleaved ``new_var``/``add_clause`` calls produce when a
        batch's first clause precedes its newest variables.  Returns
        False if the solver is (or became) UNSAT.

        A malformed record (negative literal, unknown variable, size
        past the buffer's end) raises :class:`ValueError`; the records
        before it stay loaded and logged, none after it are.
        """
        if not isinstance(buf, array) or buf.typecode != "i":
            buf = array("i", buf)
        rec = self.recorder
        if rec is not None:
            rec.ops.extend((EngineRecord.CLAUSES, rec._tag(self._active_tag),
                            new_vars, len(buf)))
            rec.ops.extend(buf)
        if self.ok and buf:
            self._cancel_until(0)
        if new_vars > 0:
            self._grow(new_vars)
        if not self.ok:
            return False
        if not buf:
            return True
        # Pre-extend the clause slots: a stored clause takes at most the
        # words of its record, and every stored record is >= 3 words.
        words = len(buf)
        cap = words // 3 + 1
        a0 = len(self.arena)
        c0 = len(self.cla_off)
        self.arena.frombytes(bytes(4 * words))
        self.cla_off.frombytes(bytes(4 * cap))
        self.cla_flags.frombytes(bytes(cap))
        self.cla_act.frombytes(bytes(8 * cap))
        self.watch_next.frombytes(bytes(8 * cap))
        io = array("q", [0, a0, c0, 0])
        try:
            status = self.core.load_clauses(self, buf, io)
            if self.proof is not None:
                self.proof.log_inputs(buf, 0, io[0])
            if status in (LOAD_CONFLICT, LOAD_EMPTY):
                self.ok = False
            elif status != LOAD_DONE:
                size = buf[io[0]]
                if size < 0 or io[0] + 1 + size > words:
                    raise ValueError(
                        f"clause record at {io[0]} has bad size {size}"
                    )
                raise ValueError(
                    f"literal {io[3]} references unknown variable"
                    if io[3] >= 0 else f"negative literal {io[3]}"
                )
        finally:
            arena_n, ncla = io[1], io[2]
            del self.arena[arena_n:]
            del self.cla_off[ncla:]
            del self.cla_flags[ncla:]
            del self.cla_act[ncla:]
            del self.watch_next[2 * ncla:]
            if ncla > c0:
                self._problem_cids.extend(_iota(c0, ncla))
                self._n_problem_lits += (arena_n - a0) - (ncla - c0)
                if self._active_tag is not None:
                    self.cla_tag.tag_range(c0, ncla, self._active_tag)
        return self.ok

    def add_pb(self, lits: list[int], coefs: list[int], bound: int) -> bool:
        """Add an engine-level PB constraint ``sum coefs[i]*lits[i] >= bound``.

        Coefficients must be positive and literals distinct over distinct
        variables (callers normalize via :mod:`repro.pb.constraint`).
        Returns False if the solver became UNSAT.
        """
        rec = self.recorder
        if rec is not None:
            rec.ops.extend((EngineRecord.PB, rec._tag(self._active_tag),
                            len(lits)))
            rec.ops.extend(lits)
            rec.wide.append(bound)
            rec.wide.extend(coefs)
        if not self.ok:
            return False
        nvars = self.nvars
        for lit, coef in zip(lits, coefs):
            if lit < 0 or lit >> 1 >= nvars:
                raise ValueError(
                    f"literal {lit} references unknown variable"
                    if lit >= 0 else f"negative literal {lit}"
                )
            if coef <= 0:
                raise ValueError("PB coefficients must be positive")
        if self.proof is not None:
            # Log the original constraint: level-0 folding and coefficient
            # saturation are propagation-neutral, so a checker propagating
            # the original form replicates the engine exactly.
            self.proof.log_pb(lits, coefs, bound)
        self._cancel_until(0)
        if bound <= 0:
            return True  # trivially satisfied
        # Fold in literals already fixed at level 0.
        flits: list[int] = []
        fcoefs: list[int] = []
        for lit, coef in zip(lits, coefs):
            v = self.value_lit(lit)
            if v == VAL_TRUE:
                bound -= coef
            elif v == VAL_UNASSIGNED:
                flits.append(lit)
                fcoefs.append(coef)
        if bound <= 0:
            return True
        # Saturation: a coefficient above the bound acts like the bound.
        fcoefs = [min(c, bound) for c in fcoefs]
        if sum(fcoefs) < bound:
            self.ok = False
            return False
        i = self._new_pb(flits, fcoefs, bound)
        if self._active_tag is not None:
            self.pb_tag[i] = self._active_tag
        # Initial propagation: literals forced immediately.
        slack = self.pb_slack[i]
        if slack < 0:
            self.ok = False
            return False
        if slack < self.pb_maxcoef[i]:
            for lit, coef in zip(flits, fcoefs):
                if coef > slack and self.value_lit(lit) == VAL_UNASSIGNED:
                    self._unchecked_enqueue(lit, _pb_ref(i))
            if self._propagate() != -1:
                self.ok = False
                return False
        return True

    # ------------------------------------------------------------------
    # Arena / watcher machinery
    # ------------------------------------------------------------------

    def _new_clause(self, lits: list[int], learnt: bool) -> int:
        """Append a packed clause record and allocate its watcher nodes."""
        cid = len(self.cla_off)
        self.cla_off.append(len(self.arena))
        self.arena.append(len(lits))
        self.arena.extend(lits)
        self.cla_flags.append(1 if learnt else 0)
        self.cla_act.append(0.0)
        self.watch_next.extend((-1, -1))
        return cid

    def _attach_clause(self, cid: int) -> None:
        """O(1): push the clause's two watcher nodes onto the lists of
        the literals that falsify its watched slots."""
        off = self.cla_off[cid]
        arena = self.arena
        wh = self.watch_head
        wn = self.watch_next
        n0 = cid << 1
        w0 = arena[off + 1] ^ 1
        w1 = arena[off + 2] ^ 1
        wn[n0] = wh[w0]
        wh[w0] = n0
        wn[n0 | 1] = wh[w1]
        wh[w1] = n0 | 1
    def _detach_clause(self, cid: int) -> None:
        """O(1) detach: flag the clause dead; its watcher nodes are
        swap-unlinked lazily the next time propagation walks past them.
        No watch list is ever scanned to remove a clause (the pre-arena
        engine paid an O(n) ``list.remove`` per watch list here)."""
        self.cla_flags[cid] |= 2
        self._dead_lits += self.arena[self.cla_off[cid]] + 1

    def _new_pb(self, lits: list[int], coefs: list[int], bound: int) -> int:
        """Append a PB record to the term slab and link its terms."""
        i = self._n_pbs
        self._n_pbs = i + 1
        short = len(lits) + 1 - len(self._pbr_buf)
        if short > 0:  # implicate: the propagated literal + the others
            self._pbr_buf.frombytes(bytes(4 * short))
        self.pb_off.append(len(self.pb_lits))
        self.pb_len.append(len(lits))
        self.pb_bound.append(bound)
        self.pb_slack.append(sum(coefs) - bound)
        self.pb_maxcoef.append(max(coefs) if coefs else 0)
        pwh = self.pb_watch_head
        pwn = self.pb_watch_next
        for lit, coef in zip(lits, coefs):
            t = len(self.pb_lits)
            self.pb_lits.append(lit)
            self.pb_coefs.append(coef)
            self.pb_owner.append(i)
            # The constraint must react when `lit` becomes FALSE, i.e.
            # when neg(lit) is asserted; link the term under the asserted
            # literal for a direct hit on enqueue.
            w = lit ^ 1
            pwn.append(pwh[w])
            pwh[w] = t
        return i

    def _compact_arena(self) -> None:
        """Reclaim the slabs of dead clauses.

        Clause ids (and therefore watcher nodes, reasons and activity
        slots) are stable -- only the literal storage moves.  Any dead
        clause still referenced as a reason on the trail keeps its slab
        (defensive; the locked-clause check in :meth:`_reduce_db` should
        already prevent that).
        """
        keep = set(self._problem_cids)
        keep.update(self._learnt_cids)
        for pos in range(self.trail_n):
            r = self.reason[self.trail[pos] >> 1]
            if r >= 0:
                keep.add(r)
        old = self.arena
        new = array("i")
        off_ = self.cla_off
        for cid in sorted(keep):
            off = off_[cid]
            size = old[off]
            off_[cid] = len(new)
            new.append(size)
            new.extend(old[off + 1: off + 1 + size])
        self.arena = new
        self._dead_lits = 0

    # ------------------------------------------------------------------
    # Assignment / trail
    # ------------------------------------------------------------------

    def _decision_level(self) -> int:
        return self.trail_lim_n

    def _unchecked_enqueue(self, lit: int, reason_ref: int = REASON_NONE
                           ) -> None:
        var = lit >> 1
        self.assigns[var] = VAL_TRUE ^ (lit & 1)
        self.level[var] = self.trail_lim_n
        self.trail_pos[var] = self.trail_n
        self.reason[var] = reason_ref
        self.trail[self.trail_n] = lit
        self.trail_n += 1
        # PB slack bookkeeping happens at assignment time (and is undone
        # in _cancel_until) so that it stays consistent regardless of how
        # far the propagation queue got before a conflict.
        pn = self.pb_watch_head[lit]
        pwn = self.pb_watch_next
        owner = self.pb_owner
        coefs = self.pb_coefs
        slack = self.pb_slack
        while pn != -1:
            slack[owner[pn]] -= coefs[pn]
            pn = pwn[pn]
        if self.trail_n > self.stats.max_trail:
            self.stats.max_trail = self.trail_n

    def _new_decision_level(self) -> None:
        self.trail_lim[self.trail_lim_n] = self.trail_n
        self.trail_lim_n += 1

    def _cancel_until(self, lvl: int) -> None:
        """Backtrack to decision level ``lvl``."""
        if self.trail_lim_n <= lvl:
            return
        bound = self.trail_lim[lvl]
        # Assignment/PB-slack undo and VSIDS heap re-insertion both run
        # in the backend; only the trail bookkeeping stays here.
        self.core.unwind(self, bound)
        self.trail_n = bound
        self.trail_lim_n = lvl
        self.qhead = bound

    # ------------------------------------------------------------------
    # Propagation (delegated to the active backend)
    # ------------------------------------------------------------------

    def _propagate(self) -> int:
        """Propagate all enqueued facts via the active backend.

        Returns a conflict ref: -1 none, >=0 a clause id, <=-2 a PB
        constraint (index ``-ref - 2``).
        """
        return self.core.propagate(self)

    # ------------------------------------------------------------------
    # Assumption cores (first-UIP analysis runs inside core.search)
    # ------------------------------------------------------------------

    def _analyze_final(self, p: int, assumptions: list[int]) -> None:
        """Compute the assumption core when assumption ``neg(p)`` turned
        out false: walk the implication graph of ``p`` back to the
        assumption decisions (MiniSat's analyzeFinal).

        Stores the core -- a subset of ``assumptions`` sufficient for
        UNSAT -- in :attr:`conflict_core`.
        """
        assumption_set = set(assumptions)
        core = []
        if neg(p) in assumption_set:
            core.append(neg(p))
        if self._decision_level() == 0:
            self.conflict_core = core
            if self.proof is not None:
                self.proof.log_add([neg(l) for l in core])
            return
        seen = self._seen
        marked: list[int] = [p >> 1]
        seen[p >> 1] = 1
        trail = self.trail
        for pos in range(self.trail_n - 1, self.trail_lim[0] - 1, -1):
            q = trail[pos]
            v = q >> 1
            if not seen[v]:
                continue
            r = self.reason[v]
            if r == REASON_NONE:
                # Decision: under assumptions, every decision inside the
                # assumption prefix IS an assumption literal.
                if q in assumption_set:
                    core.append(q)
            else:
                for lit in reason_lits(self, r, q):
                    lv = lit >> 1
                    if lv != v and not seen[lv] and self.level[lv] > 0:
                        seen[lv] = 1
                        marked.append(lv)
        for v in marked:
            seen[v] = 0
        self.conflict_core = core
        if self.proof is not None:
            # The core clause {neg(a) : a in core} is itself a RUP
            # consequence: asserting the core assumptions and propagating
            # re-derives the conflict.  Logging it lets a checker refute
            # the probe's assumptions by unit propagation alone.
            self.proof.log_add([neg(l) for l in core])

    # ------------------------------------------------------------------
    # Heuristics
    # ------------------------------------------------------------------

    def boost_activity(self, variables: list[int], amount: float = 1.0) -> None:
        """Seed the VSIDS activity of chosen variables.

        The encoder boosts the primary decision variables (allocation
        bits, path-closure selectors, media-usage bits) so early search
        branches on them first -- exploiting the paper's observation that
        most Boolean variables functionally depend on "a small set of
        primary decision variables".  ``amount`` must be non-negative
        (activities never go negative; :meth:`new_vars` relies on it).
        """
        if amount < 0:
            raise ValueError("activity boosts must be non-negative")
        rec = self.recorder
        if rec is not None:
            rec.ops.extend((EngineRecord.BOOST, len(variables)))
            rec.ops.extend(variables)
            rec.amounts.append(amount)
        for var in variables:
            self.activity[var] += amount * self.var_inc
            if self.heap_pos[var] >= 0:
                self._heap_sift_up(self.heap_pos[var])

    # Indexed binary max-heap over variable activities.  The compiled
    # backend mirrors these exact loops in C (it pops decision variables
    # and re-inserts on backtrack); any change here must be transliterated
    # to _core.c as well.

    def _heap_insert(self, var: int) -> None:
        n = self.heap_n
        self.order_heap[n] = var
        self.heap_pos[var] = n
        self.heap_n = n + 1
        self._heap_sift_up(n)

    def _heap_sift_up(self, i: int) -> None:
        heap = self.order_heap
        pos = self.heap_pos
        act = self.activity
        v = heap[i]
        a = act[v]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if act[pv] >= a:
                break
            heap[i] = pv
            pos[pv] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _heap_sift_down(self, i: int) -> None:
        heap = self.order_heap
        pos = self.heap_pos
        act = self.activity
        n = self.heap_n
        v = heap[i]
        a = act[v]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            right = left + 1
            child = left
            if right < n and act[heap[right]] > act[heap[left]]:
                child = right
            cv = heap[child]
            if act[cv] <= a:
                break
            heap[i] = cv
            pos[cv] = i
            i = child
        heap[i] = v
        pos[v] = i

    def _heap_pop(self) -> int:
        heap = self.order_heap
        pos = self.heap_pos
        top = heap[0]
        pos[top] = -1
        self.heap_n -= 1
        n = self.heap_n
        if n:
            last = heap[n]
            heap[0] = last
            pos[last] = 0
            self._heap_sift_down(0)
        return top

    # ------------------------------------------------------------------
    # Learnt-clause DB management
    # ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        """Remove roughly half of the learnt clauses with lowest activity."""
        learnts = self._learnt_cids
        act = self.cla_act
        learnts.sort(key=act.__getitem__)
        limit = self.cla_inc / max(len(learnts), 1)
        keep: list[int] = []
        half = len(learnts) // 2
        arena = self.arena
        cla_off = self.cla_off
        reason = self.reason
        for i, cid in enumerate(learnts):
            off = cla_off[cid]
            size = arena[off]
            l0 = arena[off + 1]
            locked = (
                self.value_lit(l0) == VAL_TRUE and reason[l0 >> 1] == cid
            )
            if size > 2 and not locked and (i < half or act[cid] < limit):
                self._detach_clause(cid)
                if self.proof is not None:
                    self.proof.log_delete(list(arena[off + 1: off + 1 + size]))
                self.stats.deleted_clauses += 1
            else:
                keep.append(cid)
        self._learnt_cids = keep
        if self._dead_lits * 2 > len(self.arena):
            self._compact_arena()

    # ------------------------------------------------------------------
    # Resource governance
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Bytes held by the solver's typed arenas: per-variable state,
        trail, clause arena + learnt DB metadata, watcher lists, the PB
        term slab, and the order heap.  An estimate (arrays may
        over-allocate), but it tracks the quantities that actually grow
        without bound -- the memory-watermark input of
        :mod:`repro.governor`."""
        total = 0
        for a in (
            self.assigns, self.level, self.trail_pos, self.reason,
            self.activity, self.saved_phase, self._seen, self.trail,
            self.arena, self.cla_off, self.cla_flags, self.cla_act,
            self.watch_head, self.watch_next, self.pb_lits,
            self.pb_coefs, self.pb_owner, self.pb_off, self.pb_len,
            self.pb_bound, self.pb_slack, self.pb_maxcoef,
            self.pb_watch_head, self.pb_watch_next, self.order_heap,
            self.heap_pos,
        ):
            total += len(a) * a.itemsize
        return total

    def _governor_tick(self) -> bool:
        """One rate-limited pressure check against the installed
        governor; returns True when the solver should respond with an
        aggressive learnt-DB reduction (any pressure level at or above
        ``reduce``)."""
        gov = _governor.current()
        if gov is None:
            return False
        gov.adopt(self)
        return gov.mem_tick() is not None

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: list[int] | None = None,
        budget: Budget | None = None,
    ) -> bool:
        """Solve under the given assumption literals.

        Returns True (SAT) or False (UNSAT under the assumptions). The
        model is available via :meth:`model` after a SAT answer. Learnt
        clauses are retained across calls.

        ``budget`` makes the search interruptible: the loop charges it on
        every conflict and decision and raises :class:`BudgetExpired`
        (after backtracking to level 0, keeping the solver usable and its
        learnt clauses intact) when any limit is hit.  Without a budget
        the search runs to completion exactly as before.
        """
        t0 = time.perf_counter()
        try:
            return self._solve(assumptions, budget)
        finally:
            self.stats.solve_seconds += time.perf_counter() - t0

    def _solve(
        self,
        assumptions: list[int] | None,
        budget: Budget | None,
    ) -> bool:
        self.stats.solve_calls += 1
        self.conflict_core = []
        if not self.ok:
            return False
        if budget is not None:
            budget.start()
            if budget.expired():
                self._budget_stop(budget)
        assumptions = list(assumptions or [])
        for lit in assumptions:
            if lit < 0 or lit >> 1 >= self.nvars:
                raise ValueError(
                    f"assumption {lit} references unknown variable"
                    if lit >= 0 else f"negative literal {lit}"
                )
        self._cancel_until(0)
        short = self.nvars + len(assumptions) + 1 - len(self.trail_lim)
        if short > 0:
            self.trail_lim.frombytes(bytes(4 * short))
        st = SearchState(
            assumptions, LUBY_BASE * luby(1), self.max_learnts,
            log=self.proof is not None or self.learn_hook is not None,
        )
        restart_num = 0
        room = 2 * (self.nvars + 2)  # learnt words reserved per search
        while True:
            st.n_learnts = len(self._learnt_cids)
            st.gov_active = bool(_governor._ACTIVE)
            st.budget_room = _NO_BUDGET if budget is None else budget.room()
            status = self._search(st, room)
            if budget is not None:
                budget.charge(st.charged_conflicts, st.charged_decisions)
                st.charged_conflicts = st.charged_decisions = 0
            if status == SEARCH_RESTART:
                restart_num += 1
                self.stats.restarts += 1
                st.restart_limit = LUBY_BASE * luby(restart_num + 1)
            elif status == SEARCH_REDUCE:
                self._reduce_db()
                st.max_learnts *= self.learnt_growth
            elif status == SEARCH_GOVERNOR:
                if self._governor_tick():
                    # Memory pressure: reduce aggressively and halve the
                    # learnt-DB ceiling (it regrows through learnt_growth
                    # once pressure lifts).
                    st.max_learnts = max(256.0, st.max_learnts / 2)
                    if len(self._learnt_cids) >= st.max_learnts:
                        self._reduce_db()
            elif status == SEARCH_BUDGET:
                if st.resume == RESUME_ANALYZE:
                    expired = budget.step(conflicts=1)
                else:
                    expired = budget.step(decisions=1)
                if expired:
                    if st.resume == RESUME_BRANCH:
                        # The popped decision variable is on neither the
                        # trail nor the heap: put it back first.
                        self._heap_insert(st.aux)
                    self._budget_stop(budget)
            elif status == SEARCH_ROOM:
                room *= 2
            elif status == SEARCH_SAT:
                self.max_learnts = st.max_learnts
                self._snapshot_model()
                return True
            elif status == SEARCH_UNSAT:
                if self.proof is not None:
                    self.proof.log_add([])
                self.ok = False
                return False  # definitive UNSAT beats budget expiry
            else:  # SEARCH_ASSUMPTION
                self._analyze_final(neg(st.aux), assumptions)
                return False  # conflicting assumptions

    def _search(self, st: SearchState, room: int) -> int:
        """One ``core.search`` call with ``room`` arena words (and a clause
        slot per three of them) reserved for learnt clauses.  On return
        the clause arrays are trimmed to their live ends, the new learnt
        ids are recorded, and the learnt records are handed to the proof
        log and ``learn_hook`` in conflict order."""
        a0 = len(self.arena)
        c0 = len(self.cla_off)
        slots = room // 3 + 1
        self.arena.frombytes(bytes(4 * room))
        self.cla_off.frombytes(bytes(4 * slots))
        self.cla_flags.frombytes(bytes(slots))
        self.cla_act.frombytes(bytes(8 * slots))
        self.watch_next.frombytes(bytes(8 * slots))
        if st.log is not None and len(st.log) < 2 * room:
            st.log = array("i", bytes(8 * room))
        st.arena_n, st.ncla, st.log_n = a0, c0, 0
        try:
            return self.core.search(self, st)
        finally:
            self.stats.search_calls += 1
            ncla = st.ncla
            del self.arena[st.arena_n:]
            del self.cla_off[ncla:]
            del self.cla_flags[ncla:]
            del self.cla_act[ncla:]
            del self.watch_next[2 * ncla:]
            if ncla > c0:
                self._learnt_cids.extend(range(c0, ncla))
            if st.log_n:
                self._drain_learnts(st)

    def _drain_learnts(self, st: SearchState) -> None:
        """Log and announce the ``[size, bt, lits...]`` learnt records of
        the last search call."""
        log = st.log
        proof = self.proof
        hook = self.learn_hook
        pos = 0
        while pos < st.log_n:
            n = log[pos]
            learnt = log[pos + 2:pos + 2 + n].tolist()
            if proof is not None:
                proof.log_add(learnt)
            if hook is not None:
                hook(learnt, log[pos + 1])
            pos += 2 + n

    def _snapshot_model(self) -> None:
        np = optional_numpy() if self.nvars > 256 else None
        if np is not None:
            self._model = (
                np.frombuffer(self.assigns, dtype=np.int8) == VAL_TRUE
            ).tolist()
        else:
            self._model = [v == VAL_TRUE for v in self.assigns]

    def _budget_stop(self, budget: Budget) -> None:
        """Abort the current search cooperatively: restore level 0 (the
        incremental-solving invariant) and report the exhausted budget."""
        self._cancel_until(0)
        raise BudgetExpired(budget.expired_reason or "budget exhausted")

    def model(self) -> list[bool]:
        """The satisfying assignment of the last successful solve().

        The model is a snapshot: it stays valid even after further
        constraints are added (which resets the search state).
        Variables created after that solve() read as False.
        """
        m = list(self._model)
        m.extend([False] * (self.nvars - len(m)))
        return m

    def model_value(self, lit: int) -> bool:
        """Truth value of ``lit`` in the last model."""
        var = lit >> 1
        val = self._model[var] if var < len(self._model) else False
        return (not val) if lit & 1 else val

    # ------------------------------------------------------------------
    # Introspection used by tests and the reporting layer
    # ------------------------------------------------------------------

    def num_clauses(self) -> int:
        """Number of problem clauses currently in the database."""
        return len(self._problem_cids)

    def num_literals(self) -> int:
        """Total literal count over problem clauses and PB constraints —
        the 'Lit.' column of the paper's tables (kept as a running count:
        problem clauses are only ever appended)."""
        return self._n_problem_lits + len(self.pb_lits)

    def num_pbs(self) -> int:
        """Number of PB constraints in the database."""
        return self._n_pbs

    def check_model(self) -> bool:
        """Verify the last model against every original constraint
        (used by the test suite; independent of the propagation code)."""
        # Truth value of every flat literal, as model_value reads it:
        # variables created after the model are False.
        truth = [x for val in self._model for x in (val, not val)]
        truth += (False, True) * (self.nvars - len(self._model))
        is_true = truth.__getitem__
        arena = self.arena
        cla_off = self.cla_off
        for cid in self._problem_cids:
            off = cla_off[cid]
            if not any(map(is_true, arena[off + 1:off + 1 + arena[off]])):
                return False
        pb_lits = self.pb_lits
        pb_coefs = self.pb_coefs
        for i in range(self._n_pbs):
            off = self.pb_off[i]
            end = off + self.pb_len[i]
            total = sum(
                c for lit, c in zip(pb_lits[off:end], pb_coefs[off:end])
                if truth[lit]
            )
            if total < self.pb_bound[i]:
                return False
        return True
