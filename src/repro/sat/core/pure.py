"""Reference search core: plain-Python loops over the flat arenas.

This module is the semantic specification of the propagation algorithm,
of the level-0 clause loader (with its unit propagation), of first-UIP
conflict analysis (with recursive minimization and VSIDS bumping) and
of the CDCL search loop that strings them together (:func:`search`).
The compiled backend (:mod:`repro.sat.core.fast`, ``_core.c``) is a
statement-by-statement translation of these functions and MUST mirror
their iteration order exactly — trails, conflicts and learnt clauses
are asserted bit-identical across backends by
``tests/test_sat_backends.py``.

Data layout (all owned by :class:`repro.sat.solver.Solver`):

- ``arena``       int32: packed clauses ``[size, lit0, lit1, ...]``;
  ``lit0``/``lit1`` are the watched literals (normalized in place).
- ``cla_off/cla_flags``: per-clause-id header offset and flag bits
  (bit 0 learnt, bit 1 dead — dead clauses are unlinked lazily).
- ``watch_head/watch_next``: singly-linked watcher lists; node ``2*cid``
  and ``2*cid+1`` are clause ``cid``'s two watchers, ``watch_head`` is
  indexed by the *asserted* literal that falsifies the watched one.
- ``pb_lits/pb_coefs/pb_owner`` + ``pb_off/pb_len/pb_slack/pb_maxcoef``:
  PB term slab and per-constraint counters (counter-based propagation).
- ``pb_watch_head/pb_watch_next``: linked term lists indexed by the
  asserted literal that *falsifies* a term, so the enqueue-time slack
  update is a direct walk.
- ``assigns/level/trail_pos/reason/trail``: per-variable search state;
  ``reason`` is an int ref (-1 none, >=0 clause id, <=-2 PB constraint
  ``-(ref)-2``).  ``trail_lim[:trail_lim_n]`` holds the trail index at
  which each decision level starts.

Truth values are inlined constants here (``2`` unassigned, ``1`` true,
``0`` false) — they match :mod:`repro.sat.literals`.
"""

from __future__ import annotations

from array import array

try:  # optional: the bulk activity rescales only, never required
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the base image
    _np = None

__all__ = ["PureBackend", "SearchState", "propagate", "unwind",
           "load_clauses", "search", "analyze", "reason_lits",
           "LOAD_DONE", "LOAD_CONFLICT", "LOAD_EMPTY", "LOAD_BAD"]

#: :func:`load_clauses` stop codes.
LOAD_DONE = 0      # every record consumed
LOAD_CONFLICT = 1  # a unit record propagated to a conflict: UNSAT
LOAD_EMPTY = 2     # a record reduced to no literal: UNSAT at level 0
LOAD_BAD = 3       # the record at ``io[0]`` is malformed (``io[3]``)

#: :func:`search` stop codes: why control came back to the solver.
SEARCH_SAT = 0         # every variable is assigned
SEARCH_UNSAT = 1       # conflict at decision level 0
SEARCH_ASSUMPTION = 2  # assumption ``st.aux`` is false
SEARCH_RESTART = 3     # restart limit reached; the trail is at level 0
SEARCH_REDUCE = 4      # learnt DB reached ``max_learnts + trail_n``
SEARCH_GOVERNOR = 5    # the governor countdown ran out
SEARCH_BUDGET = 6      # the next budget step might expire
SEARCH_ROOM = 7        # too little learnt room for the next conflict

#: :func:`search` resume points (``st.resume``).
RESUME_PROPAGATE = 0   # the top of the loop
RESUME_ANALYZE = 1     # analyze conflict ``st.aux`` (budget step done)
RESUME_GOVERNOR = 2    # past the reduce check: governor countdown
RESUME_DECIDE = 3      # past the governor: assumptions, then branch
RESUME_BRANCH = 4      # assign decision variable ``st.aux`` (step done)


def propagate(s) -> int:
    """Propagate all enqueued facts on solver ``s``.

    Returns a conflict ref (-1 none, >=0 clause id, <=-2 PB index
    ``-(ref)-2``) and updates ``s.qhead`` / ``s.trail_n`` /
    ``s.stats.propagations`` in place.
    """
    assigns = s.assigns
    level = s.level
    trail_pos = s.trail_pos
    reason = s.reason
    trail = s.trail
    arena = s.arena
    cla_off = s.cla_off
    cla_flags = s.cla_flags
    watch_head = s.watch_head
    watch_next = s.watch_next
    pb_lits = s.pb_lits
    pb_coefs = s.pb_coefs
    pb_owner = s.pb_owner
    pb_off = s.pb_off
    pb_len = s.pb_len
    pb_slack = s.pb_slack
    pb_maxcoef = s.pb_maxcoef
    pbw_head = s.pb_watch_head
    pbw_next = s.pb_watch_next

    qhead = s.qhead
    trail_n = s.trail_n
    cur_level = s.trail_lim_n
    nprops = 0
    confl = -1

    while qhead < trail_n:
        p = trail[qhead]
        qhead += 1
        nprops += 1
        np_ = p ^ 1
        # --- clause watchers of p ------------------------------------
        node = watch_head[p]
        prev = -1
        while node != -1:
            nxt = watch_next[node]
            cid = node >> 1
            if cla_flags[cid] & 2:  # dead: lazy unlink, O(1)
                if prev == -1:
                    watch_head[p] = nxt
                else:
                    watch_next[prev] = nxt
                node = nxt
                continue
            off = cla_off[cid]
            # Make sure the false literal is in slot 1.
            l0 = arena[off + 1]
            if l0 == np_:
                l0 = arena[off + 2]
                arena[off + 1] = l0
                arena[off + 2] = np_
            fv = assigns[l0 >> 1]
            if fv != 2 and fv ^ (l0 & 1) == 1:
                prev = node  # satisfied: keep watching
                node = nxt
                continue
            # Search a replacement literal to watch.
            size = arena[off]
            end = off + 1 + size
            found = False
            for k in range(off + 3, end):
                lk = arena[k]
                vk = assigns[lk >> 1]
                if vk == 2 or vk ^ (lk & 1) == 1:
                    arena[off + 2] = lk
                    arena[k] = np_
                    # Move this watcher node to neg(lk)'s list.
                    if prev == -1:
                        watch_head[p] = nxt
                    else:
                        watch_next[prev] = nxt
                    wl = lk ^ 1
                    watch_next[node] = watch_head[wl]
                    watch_head[wl] = node
                    found = True
                    break
            if found:
                node = nxt
                continue
            # Clause is unit or conflicting; node keeps watching np_.
            prev = node
            if fv != 2:  # slot-0 literal is FALSE -> conflict
                qhead = trail_n  # consume the queue (matches the
                confl = cid      # pre-arena engine's conflict path)
                break
            # Enqueue l0 with this clause as reason (inlined).
            var = l0 >> 1
            assigns[var] = 1 ^ (l0 & 1)
            level[var] = cur_level
            trail_pos[var] = trail_n
            reason[var] = cid
            trail[trail_n] = l0
            trail_n += 1
            pn = pbw_head[l0]
            while pn != -1:
                pb_slack[pb_owner[pn]] -= pb_coefs[pn]
                pn = pbw_next[pn]
            node = nxt
        if confl != -1:
            break
        # --- PB constraints watching p -------------------------------
        # Slack was already charged when each literal was enqueued; here
        # we only detect conflicts and implied literals.
        pn = pbw_head[p]
        while pn != -1:
            i = pb_owner[pn]
            slack = pb_slack[i]
            if slack < 0:
                confl = -(i + 2)
                break
            if slack < pb_maxcoef[i]:
                t0 = pb_off[i]
                t1 = t0 + pb_len[i]
                for t in range(t0, t1):
                    if pb_coefs[t] > slack:
                        lit = pb_lits[t]
                        var = lit >> 1
                        if assigns[var] == 2:
                            # Enqueue lit, reason = this PB constraint.
                            assigns[var] = 1 ^ (lit & 1)
                            level[var] = cur_level
                            trail_pos[var] = trail_n
                            reason[var] = -(i + 2)
                            trail[trail_n] = lit
                            trail_n += 1
                            qn = pbw_head[lit]
                            while qn != -1:
                                pb_slack[pb_owner[qn]] -= pb_coefs[qn]
                                qn = pbw_next[qn]
                        # A false literal with coef > slack would have
                        # made the slack negative already.
            pn = pbw_next[pn]
        if confl != -1:
            break

    s.qhead = qhead
    s.trail_n = trail_n
    st = s.stats
    st.propagations += nprops
    if trail_n > st.max_trail:
        st.max_trail = trail_n
    return confl


def unwind(s, bound: int) -> None:
    """Undo trail entries ``bound..trail_n-1`` (top first): save phases,
    clear assignments/reasons, restore PB slacks, then re-insert the
    freed variables into the VSIDS heap (in the same descending trail
    order, so heap tie-breaking is identical across backends).

    The trail/limit truncation stays in the solver.
    """
    assigns = s.assigns
    reason = s.reason
    trail = s.trail
    saved_phase = s.saved_phase
    pb_owner = s.pb_owner
    pb_coefs = s.pb_coefs
    pb_slack = s.pb_slack
    pbw_head = s.pb_watch_head
    pbw_next = s.pb_watch_next
    for pos in range(s.trail_n - 1, bound - 1, -1):
        lit = trail[pos]
        var = lit >> 1
        saved_phase[var] = assigns[var]
        assigns[var] = 2
        reason[var] = -1
        # `lit` ceases to be asserted: constraint terms equal to
        # neg(lit) stop being false.
        pn = pbw_head[lit]
        while pn != -1:
            pb_slack[pb_owner[pn]] += pb_coefs[pn]
            pn = pbw_next[pn]
    heap_pos = s.heap_pos
    heap_insert = s._heap_insert
    for pos in range(s.trail_n - 1, bound - 1, -1):
        var = trail[pos] >> 1
        if heap_pos[var] < 0:
            heap_insert(var)


def pick_branch(s) -> int:
    """Pop heap entries until an unassigned variable surfaces; -1 when
    every variable is assigned."""
    assigns = s.assigns
    while s.heap_n:
        v = s._heap_pop()
        if assigns[v] == 2:
            return v
    return -1


def load_clauses(s, buf, io) -> int:
    """Load ``[size, lit0, lit1, ...]`` problem-clause records from the
    flat int32 buffer ``buf`` into the solver's clause arena, at
    decision level 0.

    ``io`` is ``[pos, arena_n, ncla, lit]``: the record to start at and
    the live ends of the arena and of the per-clause arrays, which the
    caller has pre-extended far enough for every remaining record.  Each
    record gets exactly the level-0 treatment of a single
    ``Solver.add_clause`` call: every literal is validated first (no
    negative literal, no unknown variable); false and duplicate literals
    are dropped; satisfied clauses and tautologies are skipped; a clause
    of two or more literals is stored and its two watchers linked; a
    record that reduces to one literal is enqueued at level 0 and
    propagated before the next record is read.  The loop stops after a
    unit that propagates to a conflict (``LOAD_CONFLICT``) or a record
    that reduces to no literal (``LOAD_EMPTY``), and before a malformed
    record (``LOAD_BAD``, ``io[0]`` left on it and the offending literal
    or size in ``io[3]``).  ``io[0..2]`` are written back on every exit.

    Duplicate and tautology detection marks ``s._seen[var]`` with
    ``1 + sign`` and clears the marks before moving on.
    """
    assigns = s.assigns
    seen = s._seen
    arena = s.arena
    cla_off = s.cla_off
    cla_flags = s.cla_flags
    cla_act = s.cla_act
    watch_head = s.watch_head
    watch_next = s.watch_next
    nvars = s.nvars
    end = len(buf)
    pos = io[0]
    arena_n = io[1]
    ncla = io[2]
    status = LOAD_DONE
    while pos < end:
        size = buf[pos]
        rec_end = pos + 1 + size
        if size < 0 or rec_end > end:
            io[3] = size
            status = LOAD_BAD
            break
        bad = -1
        for k in range(pos + 1, rec_end):
            lit = buf[k]
            if lit < 0 or lit >> 1 >= nvars:
                bad = k
                break
        if bad != -1:
            io[3] = buf[bad]
            status = LOAD_BAD
            break
        # Simplify into the arena tail (slot 0 is the size header).
        w = arena_n + 1
        skip = False
        for k in range(pos + 1, rec_end):
            lit = buf[k]
            var = lit >> 1
            val = assigns[var]
            if val != 2:
                if val ^ (lit & 1) == 1:
                    skip = True  # satisfied at level 0
                    break
                continue  # false at level 0
            mark = seen[var]
            if mark:
                if mark == 1 + (lit & 1):
                    continue  # duplicate
                skip = True  # tautology
                break
            seen[var] = 1 + (lit & 1)
            arena[w] = lit
            w += 1
        for k in range(arena_n + 1, w):
            seen[arena[k] >> 1] = 0
        pos = rec_end
        if skip:
            continue
        n = w - arena_n - 1
        if n >= 2:
            arena[arena_n] = n
            cla_off[ncla] = arena_n
            cla_flags[ncla] = 0
            cla_act[ncla] = 0.0
            # Push the two watcher nodes onto the lists of the literals
            # that falsify the watched slots.
            n0 = ncla << 1
            wl = arena[arena_n + 1] ^ 1
            watch_next[n0] = watch_head[wl]
            watch_head[wl] = n0
            wl = arena[arena_n + 2] ^ 1
            watch_next[n0 | 1] = watch_head[wl]
            watch_head[wl] = n0 | 1
            arena_n = w
            ncla += 1
            continue
        if n == 1:
            s._unchecked_enqueue(arena[arena_n + 1], -1)
            if propagate(s) == -1:
                continue
            status = LOAD_CONFLICT
        else:
            status = LOAD_EMPTY
        break
    io[0] = pos
    io[1] = arena_n
    io[2] = ncla
    return status


def reason_lits(s, ref: int, for_lit: int) -> list:
    """Literals of the constraint explaining a conflict or propagation.

    ``ref`` is a reason/conflict ref (clause id or PB ref).  For
    clauses this is the packed clause itself. For PB constraints we
    build a clausal implicate: the propagated/conflict literal(s)
    plus the negation of every constraint literal that was already
    false at the relevant trail position (see the PB reason-weakening
    discussion in the module docstring of :mod:`repro.pb`).
    """
    if ref >= 0:
        off = s.cla_off[ref]
        return s.arena[off + 1: off + 1 + s.arena[off]]
    # PB constraint: build a clausal implicate over the literals that
    # were already false when the propagation/conflict fired.
    i = -ref - 2
    out: list[int] = []
    assigns = s.assigns
    trail_pos = s.trail_pos
    if for_lit == -1:
        pos_limit = s.trail_n
    else:
        # Reasons may only mention literals assigned before `for_lit`.
        out.append(for_lit)
        pos_limit = trail_pos[for_lit >> 1]
        assert s.level[for_lit >> 1] >= 0
    off = s.pb_off[i]
    pb_lits = s.pb_lits
    for t in range(off, off + s.pb_len[i]):
        lit = pb_lits[t]
        if lit == for_lit:
            continue
        v = assigns[lit >> 1]
        if v != 2 and v ^ (lit & 1) == 0 and trail_pos[lit >> 1] < pos_limit:
            out.append(lit)
    return out


def analyze(s, confl: int) -> tuple[list[int], int]:
    """First-UIP conflict analysis.

    Returns the learnt clause (asserting literal first) and the level
    to backtrack to.  Bumps the activity of every variable it marks
    and of every learnt clause it resolves on.
    """
    seen = s._seen
    level = s.level
    trail = s.trail
    cla_flags = s.cla_flags
    cur_level = s.trail_lim_n
    learnt: list[int] = [0]  # placeholder for the asserting literal
    counter = 0
    p = -1
    index = s.trail_n - 1
    to_clear: list[int] = []
    first = True
    while True:
        lits = reason_lits(s, confl, -1 if first else p)
        if confl >= 0 and cla_flags[confl] & 1:
            bump_clause(s, confl)
        start = 0 if first else 1
        first = False
        for k in range(start, len(lits)):
            q = lits[k]
            v = q >> 1
            if not seen[v] and level[v] > 0:
                seen[v] = 1
                to_clear.append(v)
                bump_var(s, v)
                if level[v] >= cur_level:
                    counter += 1
                else:
                    learnt.append(q)
        # Pick next literal to expand from the trail.
        while not seen[trail[index] >> 1]:
            index -= 1
        p = trail[index]
        index -= 1
        pv = p >> 1
        confl = s.reason[pv]
        seen[pv] = 0
        counter -= 1
        if counter == 0:
            break
    learnt[0] = p ^ 1
    # Recursive clause minimization (conflict-clause shrinking).
    abstract_levels = 0
    for q in learnt[1:]:
        abstract_levels |= 1 << (level[q >> 1] & 31)
    i_keep = [learnt[0]]
    for q in learnt[1:]:
        if s.reason[q >> 1] == -1 or not lit_redundant(
            s, q, abstract_levels, to_clear
        ):
            i_keep.append(q)
    learnt = i_keep
    # Find backtrack level = second-highest level in the clause.
    if len(learnt) == 1:
        bt = 0
    else:
        max_i = 1
        for k in range(2, len(learnt)):
            if level[learnt[k] >> 1] > level[learnt[max_i] >> 1]:
                max_i = k
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        bt = level[learnt[1] >> 1]
    for v in to_clear:
        seen[v] = 0
    return learnt, bt


def lit_redundant(s, lit: int, abstract_levels: int,
                  to_clear: list[int]) -> bool:
    """Check whether ``lit`` is implied by other learnt-clause literals
    (MiniSat's ``litRedundant``)."""
    seen = s._seen
    level = s.level
    stack = [lit]
    top = len(to_clear)
    while stack:
        q = stack.pop()
        r = s.reason[q >> 1]
        if r == -1:
            # Decision reached: lit is not redundant; undo markings.
            for v in to_clear[top:]:
                seen[v] = 0
            del to_clear[top:]
            return False
        # q is a FALSE literal of the clause being minimized; the
        # literal actually propagated (and on the trail) is neg(q).
        lits = reason_lits(s, r, q ^ 1)
        for k in range(1, len(lits)):
            p = lits[k]
            pv = p >> 1
            if not seen[pv] and level[pv] > 0:
                if (
                    s.reason[pv] != -1
                    and (1 << (level[pv] & 31)) & abstract_levels
                ):
                    seen[pv] = 1
                    to_clear.append(pv)
                    stack.append(p)
                else:
                    for v in to_clear[top:]:
                        seen[v] = 0
                    del to_clear[top:]
                    return False
    return True


def bump_var(s, var: int) -> None:
    """VSIDS bump; past ``s.RESCALE_LIMIT`` every activity and the
    increment are multiplied by ``1 / RESCALE_LIMIT``."""
    act = s.activity[var] + s.var_inc
    s.activity[var] = act
    if act > s.RESCALE_LIMIT:
        inv = 1.0 / s.RESCALE_LIMIT
        if _np is not None:
            acts = _np.frombuffer(s.activity)
            acts *= inv
        else:  # pragma: no cover - numpy is in the base image
            for v in range(s.nvars):
                s.activity[v] *= inv
        s.var_inc *= inv
        s.stats.var_rescales += 1
    if s.heap_pos[var] >= 0:
        s._heap_sift_up(s.heap_pos[var])


def bump_clause(s, cid: int) -> None:
    """Clause-activity bump; past ``s.RESCALE_LIMIT`` the activity of
    every live learnt clause (flags exactly 1: learnt, not dead) and the
    increment are multiplied by ``1 / RESCALE_LIMIT``."""
    act = s.cla_act[cid] + s.cla_inc
    s.cla_act[cid] = act
    if act > s.RESCALE_LIMIT:
        inv = 1.0 / s.RESCALE_LIMIT
        if _np is not None:
            acts = _np.frombuffer(s.cla_act)
            acts[_np.frombuffer(s.cla_flags, dtype=_np.int8) == 1] *= inv
        else:  # pragma: no cover - numpy is in the base image
            flags = s.cla_flags
            for c in range(len(flags)):
                if flags[c] == 1:
                    s.cla_act[c] *= inv
        s.cla_inc *= inv
        s.stats.cla_rescales += 1


class SearchState:
    """What one ``Solver.solve`` call carries from one :func:`search`
    call to the next.

    The solver fills it, calls ``search``, and acts on the stop code:
    ``resume`` and ``aux`` say where the loop stopped, so the next call
    continues the *same* iteration (after ``_reduce_db`` it goes on to
    the governor countdown, after a governor tick to the decision --
    neither re-runs the checks before it).  ``budget_room`` is how many
    more conflicts and decisions the loop may charge before it must stop
    at ``SEARCH_BUDGET`` so the solver can call ``Budget.step`` itself;
    the ones it did charge are counted in ``charged_*``.  Learnt clauses
    go to the reserved tails of the clause arrays (``arena_n``/``ncla``
    are their live ends).  When ``log`` is an array, each learnt clause
    is also appended to it as a ``[size, bt, lits...]`` record
    (``log_n`` words used), in conflict order.
    """

    __slots__ = ("assumptions", "resume", "aux", "restart_conflicts",
                 "restart_limit", "max_learnts", "n_learnts", "gov_active",
                 "budget_room", "charged_conflicts", "charged_decisions",
                 "arena_n", "ncla", "log", "log_n")

    def __init__(self, assumptions, restart_limit: int, max_learnts: float,
                 log: bool):
        self.assumptions = array("i", assumptions)
        self.resume = RESUME_PROPAGATE
        self.aux = 0
        self.restart_conflicts = 0
        self.restart_limit = restart_limit
        self.max_learnts = max_learnts
        self.n_learnts = 0
        self.gov_active = False
        self.budget_room = 0
        self.charged_conflicts = 0
        self.charged_decisions = 0
        self.arena_n = 0
        self.ncla = 0
        self.log = array("i") if log else None
        self.log_n = 0


def search(s, st: SearchState) -> int:
    """Run the CDCL loop -- propagate, analyze, learn, backjump, decide
    -- from ``st.resume`` until the solver has work to do; return the
    ``SEARCH_*`` stop code.

    A conflict at level 0 stops with ``SEARCH_UNSAT`` and a false
    assumption with ``SEARCH_ASSUMPTION`` (the literal in ``st.aux``).
    A restart backtracks to level 0 before it stops.  ``SEARCH_ROOM``
    stops before the analysis when the reserved learnt room (arena
    words, clause slots, ``st.log`` words) could not take a clause over
    every variable assigned above level 0; the solver grows the room and
    the call resumes at the same conflict.
    """
    stats = s.stats
    assigns = s.assigns
    assumptions = st.assumptions
    stage = st.resume
    aux = st.aux
    while True:
        if stage == RESUME_PROPAGATE:
            confl = propagate(s)
            if confl == -1:
                if st.restart_conflicts >= st.restart_limit:
                    # Restart (keep assumptions semantics: just backtrack).
                    st.restart_conflicts = 0
                    s._cancel_until(0)
                    st.resume = RESUME_PROPAGATE
                    return SEARCH_RESTART
                if st.n_learnts >= st.max_learnts + s.trail_n:
                    st.resume = RESUME_GOVERNOR
                    return SEARCH_REDUCE
                stage = RESUME_GOVERNOR
            else:
                stats.conflicts += 1
                st.restart_conflicts += 1
                if s.trail_lim_n == 0:
                    return SEARCH_UNSAT
                aux = confl
                if st.budget_room == 0:
                    st.resume = RESUME_ANALYZE
                    st.aux = aux
                    return SEARCH_BUDGET
                st.budget_room -= 1
                st.charged_conflicts += 1
                stage = RESUME_ANALYZE
        if stage == RESUME_ANALYZE:
            need = s.trail_n - s.trail_lim[0] + 1
            log = st.log
            if (st.arena_n + need > len(s.arena)
                    or st.ncla == len(s.cla_off)
                    or (log is not None and st.log_n + need + 1 > len(log))):
                st.resume = RESUME_ANALYZE
                st.aux = aux
                return SEARCH_ROOM
            learnt, bt = analyze(s, aux)
            n = len(learnt)
            if log is not None:
                k = st.log_n
                log[k] = n
                log[k + 1] = bt
                log[k + 2:k + 2 + n] = array("i", learnt)
                st.log_n = k + 2 + n
            s._cancel_until(bt)
            if n == 1:
                s._unchecked_enqueue(learnt[0], -1)
            else:
                # Store into the reserved tails, then attach.
                cid = st.ncla
                off = st.arena_n
                s.arena[off] = n
                s.arena[off + 1:off + 1 + n] = array("i", learnt)
                s.cla_off[cid] = off
                s.cla_flags[cid] = 1
                s.cla_act[cid] = 0.0
                s._attach_clause(cid)
                st.arena_n = off + 1 + n
                st.ncla = cid + 1
                st.n_learnts += 1
                bump_clause(s, cid)
                stats.learnt_clauses += 1
                stats.learnt_literals += n
                s._unchecked_enqueue(learnt[0], cid)
            s.var_inc *= s.VAR_DECAY
            s.cla_inc *= s.CLA_DECAY
            stage = RESUME_PROPAGATE
            continue
        if stage == RESUME_GOVERNOR:
            if st.gov_active:
                s._gov_countdown -= 1
                if s._gov_countdown <= 0:
                    s._gov_countdown = 256
                    st.resume = RESUME_DECIDE
                    return SEARCH_GOVERNOR
            stage = RESUME_DECIDE
        if stage == RESUME_DECIDE:
            # Re-apply assumptions not yet on the trail.
            lvl = s.trail_lim_n
            if lvl < len(assumptions):
                p = assumptions[lvl]
                v = assigns[p >> 1]
                if v != 2 and v ^ (p & 1) == 1:
                    # Already satisfied: open a dummy level to keep the
                    # level <-> assumption-index correspondence.
                    s._new_decision_level()
                    stage = RESUME_PROPAGATE
                    continue
                if v != 2:
                    st.aux = p
                    return SEARCH_ASSUMPTION
                s._new_decision_level()
                s._unchecked_enqueue(p, -1)
                stage = RESUME_PROPAGATE
                continue
            aux = pick_branch(s)
            if aux == -1:
                return SEARCH_SAT  # all variables assigned
            stats.decisions += 1
            if st.budget_room == 0:
                st.resume = RESUME_BRANCH
                st.aux = aux
                return SEARCH_BUDGET
            st.budget_room -= 1
            st.charged_decisions += 1
        # RESUME_BRANCH: assign the decision variable in its saved phase.
        s._new_decision_level()
        s._unchecked_enqueue(aux << 1 | (s.saved_phase[aux] == 0), -1)
        stage = RESUME_PROPAGATE


class PureBackend:
    """Always-available reference backend."""

    name = "pure"
    compiled = False
    library_path = None

    def __init__(self) -> None:
        #: Set when this backend serves an explicit ``fast`` request
        #: because the compiled core is unavailable.
        self.fallback_reason: str | None = None

    def propagate(self, solver) -> int:
        return propagate(solver)

    def unwind(self, solver, bound: int) -> None:
        unwind(solver, bound)

    def load_clauses(self, solver, buf, io) -> int:
        return load_clauses(solver, buf, io)

    def search(self, solver, st: SearchState) -> int:
        return search(solver, st)
