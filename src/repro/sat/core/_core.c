/* Compiled propagation core, conflict analysis and clause loader for the
 * CDCL/PB engine.
 *
 * This file is a statement-by-statement translation of
 * repro/sat/core/pure.py and MUST mirror its iteration order exactly:
 * the differential suite (tests/test_sat_backends.py) asserts that
 * trails, conflicts, learnt clauses and DRUP proof logs are
 * bit-identical across backends.  Any change here must be made in
 * pure.py first and then transliterated.
 *
 * The arrays are the solver's own array('b'/'i'/'q'/'d') buffers,
 * passed as raw addresses via ctypes (see fast.py); nothing is copied.
 * All allocation (arena growth, trail slots, the loader's pre-extended
 * clause slots, the analysis scratch buffers) happens on the Python
 * side -- these functions only read and write inside existing bounds.
 *
 * Build with -ffp-contract=off (fast.py does): the VSIDS activities are
 * doubles computed here and must match the Python reference bit for bit.
 */

#include <stdint.h>

#define UNASSIGNED 2

int sat_propagate(
    int8_t *assigns, int32_t *level, int32_t *trail_pos, int32_t *reason,
    int32_t *trail, int32_t *arena, int32_t *cla_off, int8_t *cla_flags,
    int32_t *watch_head, int32_t *watch_next,
    int32_t *pb_lits, int64_t *pb_coefs, int32_t *pb_owner,
    int32_t *pb_off, int32_t *pb_len, int64_t *pb_slack,
    int64_t *pb_maxcoef, int32_t *pbw_head, int32_t *pbw_next,
    int64_t *io /* [qhead, trail_n, cur_level, nprops-out] */)
{
    int64_t qhead = io[0];
    int64_t trail_n = io[1];
    int32_t cur_level = (int32_t)io[2];
    int64_t nprops = 0;
    int32_t confl = -1;

    while (qhead < trail_n) {
        int32_t p = trail[qhead++];
        nprops++;
        int32_t np = p ^ 1;
        /* --- clause watchers of p ---------------------------------- */
        int32_t node = watch_head[p];
        int32_t prev = -1;
        while (node != -1) {
            int32_t nxt = watch_next[node];
            int32_t cid = node >> 1;
            if (cla_flags[cid] & 2) { /* dead: lazy unlink, O(1) */
                if (prev == -1) watch_head[p] = nxt;
                else watch_next[prev] = nxt;
                node = nxt;
                continue;
            }
            int32_t off = cla_off[cid];
            /* Make sure the false literal is in slot 1. */
            int32_t l0 = arena[off + 1];
            if (l0 == np) {
                l0 = arena[off + 2];
                arena[off + 1] = l0;
                arena[off + 2] = np;
            }
            int8_t fv = assigns[l0 >> 1];
            if (fv != UNASSIGNED && (fv ^ (l0 & 1)) == 1) {
                prev = node; /* satisfied: keep watching */
                node = nxt;
                continue;
            }
            /* Search a replacement literal to watch. */
            int32_t end = off + 1 + arena[off];
            int found = 0;
            for (int32_t k = off + 3; k < end; k++) {
                int32_t lk = arena[k];
                int8_t vk = assigns[lk >> 1];
                if (vk == UNASSIGNED || (vk ^ (lk & 1)) == 1) {
                    arena[off + 2] = lk;
                    arena[k] = np;
                    /* Move this watcher node to neg(lk)'s list. */
                    if (prev == -1) watch_head[p] = nxt;
                    else watch_next[prev] = nxt;
                    int32_t wl = lk ^ 1;
                    watch_next[node] = watch_head[wl];
                    watch_head[wl] = node;
                    found = 1;
                    break;
                }
            }
            if (found) { node = nxt; continue; }
            /* Clause is unit or conflicting; node keeps watching np. */
            prev = node;
            if (fv != UNASSIGNED) { /* slot-0 literal FALSE: conflict */
                qhead = trail_n;    /* consume the queue (matches the  */
                confl = cid;        /* pre-arena engine conflict path) */
                break;
            }
            /* Enqueue l0 with this clause as reason (inlined). */
            int32_t var = l0 >> 1;
            assigns[var] = (int8_t)(1 ^ (l0 & 1));
            level[var] = cur_level;
            trail_pos[var] = (int32_t)trail_n;
            reason[var] = cid;
            trail[trail_n++] = l0;
            for (int32_t pn = pbw_head[l0]; pn != -1; pn = pbw_next[pn])
                pb_slack[pb_owner[pn]] -= pb_coefs[pn];
            node = nxt;
        }
        if (confl != -1) break;
        /* --- PB constraints watching p ----------------------------- */
        /* Slack was already charged when each literal was enqueued;
         * here we only detect conflicts and implied literals. */
        for (int32_t pn = pbw_head[p]; pn != -1; pn = pbw_next[pn]) {
            int32_t i = pb_owner[pn];
            int64_t slack = pb_slack[i];
            if (slack < 0) {
                confl = -(i + 2);
                break;
            }
            if (slack < pb_maxcoef[i]) {
                int32_t t0 = pb_off[i];
                int32_t t1 = t0 + pb_len[i];
                for (int32_t t = t0; t < t1; t++) {
                    if (pb_coefs[t] > slack) {
                        int32_t lit = pb_lits[t];
                        int32_t var = lit >> 1;
                        if (assigns[var] == UNASSIGNED) {
                            /* Enqueue lit, reason = this constraint. */
                            assigns[var] = (int8_t)(1 ^ (lit & 1));
                            level[var] = cur_level;
                            trail_pos[var] = (int32_t)trail_n;
                            reason[var] = -(i + 2);
                            trail[trail_n++] = lit;
                            for (int32_t qn = pbw_head[lit]; qn != -1;
                                 qn = pbw_next[qn])
                                pb_slack[pb_owner[qn]] -= pb_coefs[qn];
                        }
                        /* A false literal with coef > slack would have
                         * made the slack negative already. */
                    }
                }
            }
        }
        if (confl != -1) break;
    }

    io[0] = qhead;
    io[1] = trail_n;
    io[3] = nprops;
    return confl;
}

/* --- VSIDS heap: exact transliteration of the solver's Python heap --- */

static void heap_sift_up(int32_t *heap, int32_t *pos, double *act, int64_t i)
{
    int32_t v = heap[i];
    double a = act[v];
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        int32_t pv = heap[parent];
        if (act[pv] >= a) break;
        heap[i] = pv;
        pos[pv] = (int32_t)i;
        i = parent;
    }
    heap[i] = v;
    pos[v] = (int32_t)i;
}

static void heap_sift_down(int32_t *heap, int32_t *pos, double *act,
                           int64_t n, int64_t i)
{
    int32_t v = heap[i];
    double a = act[v];
    for (;;) {
        int64_t left = 2 * i + 1;
        if (left >= n) break;
        int64_t right = left + 1;
        int64_t child =
            (right < n && act[heap[right]] > act[heap[left]]) ? right : left;
        int32_t cv = heap[child];
        if (act[cv] <= a) break;
        heap[i] = cv;
        pos[cv] = (int32_t)i;
        i = child;
    }
    heap[i] = v;
    pos[v] = (int32_t)i;
}

void sat_unwind(
    int8_t *assigns, int32_t *reason, int32_t *trail, int8_t *saved_phase,
    int32_t *pb_owner, int64_t *pb_coefs, int64_t *pb_slack,
    int32_t *pbw_head, int32_t *pbw_next,
    int32_t *order_heap, int32_t *heap_pos, double *activity,
    int64_t trail_n, int64_t bound, int64_t *io /* [heap_n] */)
{
    for (int64_t pos = trail_n - 1; pos >= bound; pos--) {
        int32_t lit = trail[pos];
        int32_t var = lit >> 1;
        saved_phase[var] = assigns[var];
        assigns[var] = UNASSIGNED;
        reason[var] = -1;
        /* `lit` ceases to be asserted: constraint terms equal to
         * neg(lit) stop being false. */
        for (int32_t pn = pbw_head[lit]; pn != -1; pn = pbw_next[pn])
            pb_slack[pb_owner[pn]] += pb_coefs[pn];
    }
    /* Re-insert freed variables, same descending order as the first
     * pass so heap tie-breaking matches the reference backend.  The
     * heap capacity is always nvars (solver reserves one slot per
     * variable), so plain stores suffice. */
    int64_t heap_n = io[0];
    for (int64_t pos = trail_n - 1; pos >= bound; pos--) {
        int32_t var = trail[pos] >> 1;
        if (heap_pos[var] < 0) {
            int64_t i = heap_n++;
            order_heap[i] = var;
            heap_pos[var] = (int32_t)i;
            heap_sift_up(order_heap, heap_pos, activity, i);
        }
    }
    io[0] = heap_n;
}

int sat_pick_branch(
    int8_t *assigns, int32_t *order_heap, int32_t *heap_pos,
    double *activity, int64_t *io /* [heap_n] */)
{
    int64_t n = io[0];
    int32_t var = -1;
    while (n > 0) {
        int32_t top = order_heap[0];
        heap_pos[top] = -1;
        n--;
        if (n > 0) {
            int32_t last = order_heap[n];
            order_heap[0] = last;
            heap_pos[last] = 0;
            heap_sift_down(order_heap, heap_pos, activity, n, 0);
        }
        if (assigns[top] == UNASSIGNED) {
            var = top;
            break;
        }
    }
    io[0] = n;
    return var;
}

/* --- Level-0 bulk clause loader (see load_clauses in pure.py) ------- */

#define LOAD_DONE 0
#define LOAD_UNIT 1
#define LOAD_EMPTY 2
#define LOAD_BAD 3

int sat_load_clauses(
    int32_t *buf, int64_t end, int64_t nvars,
    int8_t *assigns, int8_t *seen, int32_t *arena, int32_t *cla_off,
    int8_t *cla_flags, double *cla_act,
    int32_t *watch_head, int32_t *watch_next,
    int64_t *io /* [pos, arena_n, ncla, lit-out] */)
{
    int64_t pos = io[0];
    int64_t arena_n = io[1];
    int64_t ncla = io[2];
    int status = LOAD_DONE;
    while (pos < end) {
        int64_t size = buf[pos];
        int64_t rec_end = pos + 1 + size;
        if (size < 0 || rec_end > end) {
            io[3] = size;
            status = LOAD_BAD;
            break;
        }
        int64_t bad = -1;
        for (int64_t k = pos + 1; k < rec_end; k++) {
            int32_t lit = buf[k];
            if (lit < 0 || (lit >> 1) >= nvars) { bad = k; break; }
        }
        if (bad != -1) {
            io[3] = buf[bad];
            status = LOAD_BAD;
            break;
        }
        /* Simplify into the arena tail (slot 0 is the size header). */
        int64_t w = arena_n + 1;
        int skip = 0;
        for (int64_t k = pos + 1; k < rec_end; k++) {
            int32_t lit = buf[k];
            int32_t var = lit >> 1;
            int8_t val = assigns[var];
            if (val != UNASSIGNED) {
                if ((val ^ (lit & 1)) == 1) { skip = 1; break; }
                continue; /* false at level 0 */
            }
            int8_t mark = seen[var];
            if (mark) {
                if (mark == 1 + (lit & 1)) continue; /* duplicate */
                skip = 1; /* tautology */
                break;
            }
            seen[var] = (int8_t)(1 + (lit & 1));
            arena[w++] = lit;
        }
        for (int64_t k = arena_n + 1; k < w; k++)
            seen[arena[k] >> 1] = 0;
        pos = rec_end;
        if (skip) continue;
        int64_t n = w - arena_n - 1;
        if (n >= 2) {
            arena[arena_n] = (int32_t)n;
            cla_off[ncla] = (int32_t)arena_n;
            cla_flags[ncla] = 0;
            cla_act[ncla] = 0.0;
            /* Push the two watcher nodes onto the lists of the literals
             * that falsify the watched slots. */
            int32_t n0 = (int32_t)(ncla << 1);
            int32_t wl = arena[arena_n + 1] ^ 1;
            watch_next[n0] = watch_head[wl];
            watch_head[wl] = n0;
            wl = arena[arena_n + 2] ^ 1;
            watch_next[n0 | 1] = watch_head[wl];
            watch_head[wl] = n0 | 1;
            arena_n = w;
            ncla++;
            continue;
        }
        if (n == 1) {
            io[3] = arena[arena_n + 1];
            status = LOAD_UNIT;
        } else {
            status = LOAD_EMPTY;
        }
        break;
    }
    io[0] = pos;
    io[1] = arena_n;
    io[2] = ncla;
    return status;
}

/* --- First-UIP conflict analysis (see analyze in pure.py) ----------- */

typedef struct {
    int8_t *assigns;
    int32_t *level, *trail_pos, *reason, *trail;
    int8_t *seen;
    int32_t *arena, *cla_off;
    int8_t *cla_flags;
    double *cla_act;
    int32_t *pb_lits, *pb_off, *pb_len;
    double *activity;
    int32_t *order_heap, *heap_pos;
    int32_t *to_clear, *stack, *pbr;
    int64_t trail_n, nvars, ncla, nclear;
    double var_inc, cla_inc, limit;
} analysis;

/* Literals of the constraint `ref` explaining a conflict (for_lit == -1)
 * or the propagation of for_lit.  Clause reasons point into the arena;
 * PB clausal implicates are built in the pbr buffer. */
static int32_t *reason_lits(analysis *a, int32_t ref, int32_t for_lit,
                            int64_t *n)
{
    if (ref >= 0) {
        int32_t off = a->cla_off[ref];
        *n = a->arena[off];
        return a->arena + off + 1;
    }
    int32_t i = -ref - 2;
    int32_t *out = a->pbr;
    int64_t k = 0;
    int64_t pos_limit;
    if (for_lit == -1) {
        pos_limit = a->trail_n;
    } else {
        /* Reasons may only mention literals assigned before for_lit. */
        out[k++] = for_lit;
        pos_limit = a->trail_pos[for_lit >> 1];
    }
    int32_t t1 = a->pb_off[i] + a->pb_len[i];
    for (int32_t t = a->pb_off[i]; t < t1; t++) {
        int32_t lit = a->pb_lits[t];
        if (lit == for_lit) continue;
        int8_t v = a->assigns[lit >> 1];
        if (v != UNASSIGNED && (v ^ (lit & 1)) == 0
            && a->trail_pos[lit >> 1] < pos_limit)
            out[k++] = lit;
    }
    *n = k;
    return out;
}

static void bump_var(analysis *a, int32_t var)
{
    double act = a->activity[var] + a->var_inc;
    a->activity[var] = act;
    if (act > a->limit) {
        double inv = 1.0 / a->limit;
        for (int64_t v = 0; v < a->nvars; v++) a->activity[v] *= inv;
        a->var_inc *= inv;
    }
    if (a->heap_pos[var] >= 0)
        heap_sift_up(a->order_heap, a->heap_pos, a->activity,
                     a->heap_pos[var]);
}

/* Solver._bump_clause.  The rescale walks the live learnt clauses:
 * exactly the ids with flags == 1 (learnt, not dead), which is the
 * solver's _learnt_cids since _reduce_db is the only detach path. */
static void bump_clause(analysis *a, int32_t cid)
{
    double act = a->cla_act[cid] + a->cla_inc;
    a->cla_act[cid] = act;
    if (act > a->limit) {
        double inv = 1.0 / a->limit;
        for (int64_t c = 0; c < a->ncla; c++)
            if (a->cla_flags[c] == 1) a->cla_act[c] *= inv;
        a->cla_inc *= inv;
    }
}

static void undo_marks(analysis *a, int64_t top)
{
    for (int64_t k = top; k < a->nclear; k++) a->seen[a->to_clear[k]] = 0;
    a->nclear = top;
}

/* MiniSat's litRedundant: is lit implied by other learnt literals? */
static int lit_redundant(analysis *a, int32_t lit, uint32_t abstract_levels)
{
    int64_t sp = 0;
    int64_t top = a->nclear;
    a->stack[sp++] = lit;
    while (sp > 0) {
        int32_t q = a->stack[--sp];
        int32_t r = a->reason[q >> 1];
        if (r == -1) { /* decision reached: not redundant */
            undo_marks(a, top);
            return 0;
        }
        /* q is a FALSE literal of the clause being minimized; the
         * literal actually propagated (and on the trail) is neg(q). */
        int64_t n;
        int32_t *lits = reason_lits(a, r, q ^ 1, &n);
        for (int64_t k = 1; k < n; k++) {
            int32_t p = lits[k];
            int32_t pv = p >> 1;
            if (!a->seen[pv] && a->level[pv] > 0) {
                if (a->reason[pv] != -1
                    && ((1u << (a->level[pv] & 31)) & abstract_levels)) {
                    a->seen[pv] = 1;
                    a->to_clear[a->nclear++] = pv;
                    a->stack[sp++] = p;
                } else {
                    undo_marks(a, top);
                    return 0;
                }
            }
        }
    }
    return 1;
}

/* Returns the learnt clause length (asserting literal first, written to
 * learnt) and stores the backjump level in io[5].  Every buffer holds
 * one slot per variable -- a learnt clause, the marked variables and
 * the minimization stack never repeat a variable -- and pbr also fits
 * the longest PB constraint plus one. */
int64_t sat_analyze(
    int8_t *assigns, int32_t *level, int32_t *trail_pos, int32_t *reason,
    int32_t *trail, int8_t *seen, int32_t *arena, int32_t *cla_off,
    int8_t *cla_flags, double *cla_act,
    int32_t *pb_lits, int32_t *pb_off, int32_t *pb_len,
    double *activity, int32_t *order_heap, int32_t *heap_pos,
    int32_t *learnt, int32_t *to_clear, int32_t *stack, int32_t *pbr,
    int64_t *io /* [confl, trail_n, cur_level, nvars, ncla, bt-out] */,
    double *dio /* [var_inc, cla_inc] in/out */,
    double rescale_limit)
{
    analysis a = {
        assigns, level, trail_pos, reason, trail, seen, arena, cla_off,
        cla_flags, cla_act, pb_lits, pb_off, pb_len, activity, order_heap,
        heap_pos, to_clear, stack, pbr,
        io[1], io[3], io[4], 0, dio[0], dio[1], rescale_limit,
    };
    int32_t confl = (int32_t)io[0];
    int32_t cur_level = (int32_t)io[2];
    int64_t learnt_n = 1; /* slot 0: the asserting literal */
    int64_t counter = 0;
    int32_t p = -1;
    int64_t index = a.trail_n - 1;
    int first = 1;
    for (;;) {
        int64_t n;
        int32_t *lits = reason_lits(&a, confl, first ? -1 : p, &n);
        if (confl >= 0 && (cla_flags[confl] & 1)) bump_clause(&a, confl);
        int64_t start = first ? 0 : 1;
        first = 0;
        for (int64_t k = start; k < n; k++) {
            int32_t q = lits[k];
            int32_t v = q >> 1;
            if (!seen[v] && level[v] > 0) {
                seen[v] = 1;
                to_clear[a.nclear++] = v;
                bump_var(&a, v);
                if (level[v] >= cur_level) counter++;
                else learnt[learnt_n++] = q;
            }
        }
        /* Pick next literal to expand from the trail. */
        while (!seen[trail[index] >> 1]) index--;
        p = trail[index--];
        int32_t pv = p >> 1;
        confl = reason[pv];
        seen[pv] = 0;
        if (--counter == 0) break;
    }
    learnt[0] = p ^ 1;
    /* Recursive clause minimization (conflict-clause shrinking). */
    uint32_t abstract_levels = 0;
    for (int64_t k = 1; k < learnt_n; k++)
        abstract_levels |= 1u << (level[learnt[k] >> 1] & 31);
    int64_t keep = 1;
    for (int64_t k = 1; k < learnt_n; k++) {
        int32_t q = learnt[k];
        if (reason[q >> 1] == -1 || !lit_redundant(&a, q, abstract_levels))
            learnt[keep++] = q;
    }
    learnt_n = keep;
    /* Backtrack level = second-highest level in the clause. */
    int32_t bt = 0;
    if (learnt_n > 1) {
        int64_t max_i = 1;
        for (int64_t k = 2; k < learnt_n; k++)
            if (level[learnt[k] >> 1] > level[learnt[max_i] >> 1]) max_i = k;
        int32_t tmp = learnt[1];
        learnt[1] = learnt[max_i];
        learnt[max_i] = tmp;
        bt = level[learnt[1] >> 1];
    }
    for (int64_t k = 0; k < a.nclear; k++) seen[to_clear[k]] = 0;
    io[5] = bt;
    dio[0] = a.var_inc;
    dio[1] = a.cla_inc;
    return learnt_n;
}
