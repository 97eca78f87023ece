/* Compiled search core for the CDCL/PB engine: propagation, trail unwind,
 * the level-0 clause loader, and the CDCL search loop (branching,
 * first-UIP conflict analysis, learning, backjumping).
 *
 * This file is a statement-by-statement translation of
 * repro/sat/core/pure.py and MUST mirror its iteration order exactly:
 * the differential suite (tests/test_sat_backends.py) asserts that
 * trails, conflicts, learnt clauses and DRUP proof logs are
 * bit-identical across backends.  Any change here must be made in
 * pure.py first and then transliterated.
 *
 * The arrays are the solver's own array('b'/'i'/'q'/'d') buffers, passed
 * as raw addresses (see fast.py); nothing is copied.  All allocation
 * (arena growth, trail and level slots, the reserved learnt room, the
 * analysis scratch buffers) happens on the Python side -- these
 * functions only read and write inside existing bounds.
 *
 * Every exported function takes the same three arguments: the address
 * table (one int64 per array, in the order of fast.py's _ARRAYS and of
 * core_open below), the int64 io block (the IO_* prefix, then the call's
 * own slots) and the double io block (the DIO_* prefix, then the call's
 * own slots).
 *
 * Build with -ffp-contract=off (fast.py does): the VSIDS activities are
 * doubles computed here and must match the Python reference bit for bit.
 */

#include <stdint.h>

#define UNASSIGNED 2

/* io prefix shared by every call: solver scalars in, then out. */
enum {
    IO_QHEAD, IO_TRAIL_N, IO_LIM_N, IO_HEAP_N, IO_NVARS, IO_NCLA,
    IO_PROPS,        /* out: propagations done */
    IO_MAX_TRAIL,    /* in/out: longest trail seen */
    IO_VAR_RESCALES, /* out: activity rescales */
    IO_CLA_RESCALES, /* out: clause-activity rescales */
    IO_PREFIX
};
enum { DIO_VAR_INC, DIO_CLA_INC, DIO_LIMIT, DIO_PREFIX };

typedef struct {
    int8_t *assigns;
    int32_t *level, *trail_pos, *reason, *trail, *trail_lim;
    int8_t *saved_phase;
    double *activity;
    int32_t *order_heap, *heap_pos;
    int8_t *seen;
    int32_t *arena, *cla_off;
    int8_t *cla_flags;
    double *cla_act;
    int32_t *watch_head, *watch_next;
    int32_t *pb_lits;
    int64_t *pb_coefs;
    int32_t *pb_owner, *pb_off, *pb_len;
    int64_t *pb_slack, *pb_maxcoef;
    int32_t *pbw_head, *pbw_next;
    int32_t *learnt, *to_clear, *stack, *pbr; /* analysis scratch */
    int64_t qhead, trail_n, lim_n, heap_n, nvars, ncla, nprops, max_trail,
        var_rescales, cla_rescales;
    double var_inc, cla_inc, limit;
    int64_t nclear; /* analysis: marked variables in to_clear */
} core;

static void core_open(core *c, const int64_t *addr, const int64_t *io,
                      const double *dio)
{
#define A(i) ((void *)(intptr_t)addr[i])
    c->assigns = A(0);
    c->level = A(1);
    c->trail_pos = A(2);
    c->reason = A(3);
    c->trail = A(4);
    c->trail_lim = A(5);
    c->saved_phase = A(6);
    c->activity = A(7);
    c->order_heap = A(8);
    c->heap_pos = A(9);
    c->seen = A(10);
    c->arena = A(11);
    c->cla_off = A(12);
    c->cla_flags = A(13);
    c->cla_act = A(14);
    c->watch_head = A(15);
    c->watch_next = A(16);
    c->pb_lits = A(17);
    c->pb_coefs = A(18);
    c->pb_owner = A(19);
    c->pb_off = A(20);
    c->pb_len = A(21);
    c->pb_slack = A(22);
    c->pb_maxcoef = A(23);
    c->pbw_head = A(24);
    c->pbw_next = A(25);
    c->learnt = A(26);
    c->to_clear = A(27);
    c->stack = A(28);
    c->pbr = A(29);
#undef A
    c->qhead = io[IO_QHEAD];
    c->trail_n = io[IO_TRAIL_N];
    c->lim_n = io[IO_LIM_N];
    c->heap_n = io[IO_HEAP_N];
    c->nvars = io[IO_NVARS];
    c->ncla = io[IO_NCLA];
    c->nprops = 0;
    c->max_trail = io[IO_MAX_TRAIL];
    c->var_rescales = 0;
    c->cla_rescales = 0;
    c->var_inc = dio[DIO_VAR_INC];
    c->cla_inc = dio[DIO_CLA_INC];
    c->limit = dio[DIO_LIMIT];
    c->nclear = 0;
}

static void core_close(const core *c, int64_t *io, double *dio)
{
    io[IO_QHEAD] = c->qhead;
    io[IO_TRAIL_N] = c->trail_n;
    io[IO_LIM_N] = c->lim_n;
    io[IO_HEAP_N] = c->heap_n;
    io[IO_NCLA] = c->ncla;
    io[IO_PROPS] = c->nprops;
    io[IO_MAX_TRAIL] = c->max_trail;
    io[IO_VAR_RESCALES] = c->var_rescales;
    io[IO_CLA_RESCALES] = c->cla_rescales;
    dio[DIO_VAR_INC] = c->var_inc;
    dio[DIO_CLA_INC] = c->cla_inc;
}

/* --- Propagation (see propagate in pure.py) -------------------------- */

/* The hot loop works on local copies of every pointer and scalar: int8
 * stores may alias anything, so struct fields would be re-read after
 * each one. */
static int32_t propagate(core *c)
{
    int8_t *assigns = c->assigns;
    int32_t *level = c->level, *trail_pos = c->trail_pos;
    int32_t *reason = c->reason, *trail = c->trail;
    int32_t *arena = c->arena, *cla_off = c->cla_off;
    int8_t *cla_flags = c->cla_flags;
    int32_t *watch_head = c->watch_head, *watch_next = c->watch_next;
    int32_t *pb_lits = c->pb_lits;
    int64_t *pb_coefs = c->pb_coefs;
    int32_t *pb_owner = c->pb_owner, *pb_off = c->pb_off;
    int32_t *pb_len = c->pb_len;
    int64_t *pb_slack = c->pb_slack, *pb_maxcoef = c->pb_maxcoef;
    int32_t *pbw_head = c->pbw_head, *pbw_next = c->pbw_next;
    int64_t qhead = c->qhead;
    int64_t trail_n = c->trail_n;
    int32_t cur_level = (int32_t)c->lim_n;
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

    c->qhead = qhead;
    c->trail_n = trail_n;
    c->nprops += nprops;
    if (trail_n > c->max_trail) c->max_trail = trail_n;
    return confl;
}

/* Solver._unchecked_enqueue: assign lit at the current level. */
static void enqueue(core *c, int32_t lit, int32_t reason)
{
    int32_t var = lit >> 1;
    c->assigns[var] = (int8_t)(1 ^ (lit & 1));
    c->level[var] = (int32_t)c->lim_n;
    c->trail_pos[var] = (int32_t)c->trail_n;
    c->reason[var] = reason;
    c->trail[c->trail_n++] = lit;
    for (int32_t pn = c->pbw_head[lit]; pn != -1; pn = c->pbw_next[pn])
        c->pb_slack[c->pb_owner[pn]] -= c->pb_coefs[pn];
    if (c->trail_n > c->max_trail) c->max_trail = c->trail_n;
}

/* --- VSIDS heap: exact transliteration of the solver's Python heap --- */

static void heap_sift_up(core *c, int64_t i)
{
    int32_t *heap = c->order_heap, *pos = c->heap_pos;
    double *act = c->activity;
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

static void heap_sift_down(core *c, int64_t i)
{
    int32_t *heap = c->order_heap, *pos = c->heap_pos;
    double *act = c->activity;
    int64_t n = c->heap_n;
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

/* --- Unwind and backtrack (see unwind in pure.py) ------------------- */

static void unwind(core *c, int64_t bound)
{
    for (int64_t pos = c->trail_n - 1; pos >= bound; pos--) {
        int32_t lit = c->trail[pos];
        int32_t var = lit >> 1;
        c->saved_phase[var] = c->assigns[var];
        c->assigns[var] = UNASSIGNED;
        c->reason[var] = -1;
        /* `lit` ceases to be asserted: constraint terms equal to
         * neg(lit) stop being false. */
        for (int32_t pn = c->pbw_head[lit]; pn != -1; pn = c->pbw_next[pn])
            c->pb_slack[c->pb_owner[pn]] += c->pb_coefs[pn];
    }
    /* Re-insert freed variables, same descending order as the first
     * pass so heap tie-breaking matches the reference backend.  The
     * heap capacity is always nvars (solver reserves one slot per
     * variable), so plain stores suffice. */
    for (int64_t pos = c->trail_n - 1; pos >= bound; pos--) {
        int32_t var = c->trail[pos] >> 1;
        if (c->heap_pos[var] < 0) {
            int64_t i = c->heap_n++;
            c->order_heap[i] = var;
            c->heap_pos[var] = (int32_t)i;
            heap_sift_up(c, i);
        }
    }
}

/* Solver._cancel_until. */
static void cancel_until(core *c, int64_t lvl)
{
    if (c->lim_n <= lvl) return;
    int64_t bound = c->trail_lim[lvl];
    unwind(c, bound);
    c->trail_n = bound;
    c->lim_n = lvl;
    c->qhead = bound;
}

/* Pop heap entries until an unassigned variable surfaces; -1 when every
 * variable is assigned. */
static int32_t pick_branch(core *c)
{
    while (c->heap_n > 0) {
        int32_t top = c->order_heap[0];
        c->heap_pos[top] = -1;
        c->heap_n--;
        if (c->heap_n > 0) {
            int32_t last = c->order_heap[c->heap_n];
            c->order_heap[0] = last;
            c->heap_pos[last] = 0;
            heap_sift_down(c, 0);
        }
        if (c->assigns[top] == UNASSIGNED) return top;
    }
    return -1;
}

/* --- First-UIP conflict analysis (see analyze in pure.py) ----------- */

/* Literals of the constraint `ref` explaining a conflict (for_lit == -1)
 * or the propagation of for_lit.  Clause reasons point into the arena;
 * PB clausal implicates are built in the pbr buffer. */
static int32_t *reason_lits(core *c, int32_t ref, int32_t for_lit,
                            int64_t *n)
{
    if (ref >= 0) {
        int32_t off = c->cla_off[ref];
        *n = c->arena[off];
        return c->arena + off + 1;
    }
    int32_t i = -ref - 2;
    int32_t *out = c->pbr;
    int64_t k = 0;
    int64_t pos_limit;
    if (for_lit == -1) {
        pos_limit = c->trail_n;
    } else {
        /* Reasons may only mention literals assigned before for_lit. */
        out[k++] = for_lit;
        pos_limit = c->trail_pos[for_lit >> 1];
    }
    int32_t t1 = c->pb_off[i] + c->pb_len[i];
    for (int32_t t = c->pb_off[i]; t < t1; t++) {
        int32_t lit = c->pb_lits[t];
        if (lit == for_lit) continue;
        int8_t v = c->assigns[lit >> 1];
        if (v != UNASSIGNED && (v ^ (lit & 1)) == 0
            && c->trail_pos[lit >> 1] < pos_limit)
            out[k++] = lit;
    }
    *n = k;
    return out;
}

static void bump_var(core *c, int32_t var)
{
    double act = c->activity[var] + c->var_inc;
    c->activity[var] = act;
    if (act > c->limit) {
        double inv = 1.0 / c->limit;
        for (int64_t v = 0; v < c->nvars; v++) c->activity[v] *= inv;
        c->var_inc *= inv;
        c->var_rescales++;
    }
    if (c->heap_pos[var] >= 0) heap_sift_up(c, c->heap_pos[var]);
}

/* The rescale walks the live learnt clauses: exactly the ids with
 * flags == 1 (learnt, not dead). */
static void bump_clause(core *c, int32_t cid)
{
    double act = c->cla_act[cid] + c->cla_inc;
    c->cla_act[cid] = act;
    if (act > c->limit) {
        double inv = 1.0 / c->limit;
        for (int64_t k = 0; k < c->ncla; k++)
            if (c->cla_flags[k] == 1) c->cla_act[k] *= inv;
        c->cla_inc *= inv;
        c->cla_rescales++;
    }
}

static void undo_marks(core *c, int64_t top)
{
    for (int64_t k = top; k < c->nclear; k++) c->seen[c->to_clear[k]] = 0;
    c->nclear = top;
}

/* MiniSat's litRedundant: is lit implied by other learnt literals? */
static int lit_redundant(core *c, int32_t lit, uint32_t abstract_levels)
{
    int64_t sp = 0;
    int64_t top = c->nclear;
    c->stack[sp++] = lit;
    while (sp > 0) {
        int32_t q = c->stack[--sp];
        int32_t r = c->reason[q >> 1];
        if (r == -1) { /* decision reached: not redundant */
            undo_marks(c, top);
            return 0;
        }
        /* q is a FALSE literal of the clause being minimized; the
         * literal actually propagated (and on the trail) is neg(q). */
        int64_t n;
        int32_t *lits = reason_lits(c, r, q ^ 1, &n);
        for (int64_t k = 1; k < n; k++) {
            int32_t p = lits[k];
            int32_t pv = p >> 1;
            if (!c->seen[pv] && c->level[pv] > 0) {
                if (c->reason[pv] != -1
                    && ((1u << (c->level[pv] & 31)) & abstract_levels)) {
                    c->seen[pv] = 1;
                    c->to_clear[c->nclear++] = pv;
                    c->stack[sp++] = p;
                } else {
                    undo_marks(c, top);
                    return 0;
                }
            }
        }
    }
    return 1;
}

/* Returns the learnt clause length (asserting literal first, written to
 * c->learnt) and stores the backjump level in *bt.  Every scratch buffer
 * holds one slot per variable -- a learnt clause, the marked variables
 * and the minimization stack never repeat a variable -- and pbr also
 * fits the longest PB constraint plus one. */
static int64_t analyze(core *c, int32_t confl, int32_t *bt)
{
    int8_t *seen = c->seen;
    int32_t *level = c->level, *trail = c->trail, *learnt = c->learnt;
    int32_t cur_level = (int32_t)c->lim_n;
    int64_t learnt_n = 1; /* slot 0: the asserting literal */
    int64_t counter = 0;
    int32_t p = -1;
    int64_t index = c->trail_n - 1;
    int first = 1;
    c->nclear = 0;
    for (;;) {
        int64_t n;
        int32_t *lits = reason_lits(c, confl, first ? -1 : p, &n);
        if (confl >= 0 && (c->cla_flags[confl] & 1)) bump_clause(c, confl);
        int64_t start = first ? 0 : 1;
        first = 0;
        for (int64_t k = start; k < n; k++) {
            int32_t q = lits[k];
            int32_t v = q >> 1;
            if (!seen[v] && level[v] > 0) {
                seen[v] = 1;
                c->to_clear[c->nclear++] = v;
                bump_var(c, v);
                if (level[v] >= cur_level) counter++;
                else learnt[learnt_n++] = q;
            }
        }
        /* Pick next literal to expand from the trail. */
        while (!seen[trail[index] >> 1]) index--;
        p = trail[index--];
        int32_t pv = p >> 1;
        confl = c->reason[pv];
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
        if (c->reason[q >> 1] == -1 || !lit_redundant(c, q, abstract_levels))
            learnt[keep++] = q;
    }
    learnt_n = keep;
    /* Backtrack level = second-highest level in the clause. */
    *bt = 0;
    if (learnt_n > 1) {
        int64_t max_i = 1;
        for (int64_t k = 2; k < learnt_n; k++)
            if (level[learnt[k] >> 1] > level[learnt[max_i] >> 1]) max_i = k;
        int32_t tmp = learnt[1];
        learnt[1] = learnt[max_i];
        learnt[max_i] = tmp;
        *bt = level[learnt[1] >> 1];
    }
    for (int64_t k = 0; k < c->nclear; k++) seen[c->to_clear[k]] = 0;
    return learnt_n;
}

/* --- Exported calls ------------------------------------------------- */

/* Returns the conflict ref (-1 none). */
int sat_propagate(const int64_t *addr, int64_t *io, double *dio)
{
    core c;
    core_open(&c, addr, io, dio);
    int32_t confl = propagate(&c);
    core_close(&c, io, dio);
    return confl;
}

/* Undo trail entries io[IO_PREFIX]..trail_n-1; the trail and level
 * truncation stays in the solver. */
void sat_unwind(const int64_t *addr, int64_t *io, double *dio)
{
    core c;
    core_open(&c, addr, io, dio);
    unwind(&c, io[IO_PREFIX]);
    core_close(&c, io, dio);
}

/* --- Level-0 bulk clause loader (see load_clauses in pure.py) ------- */

#define LOAD_DONE 0
#define LOAD_CONFLICT 1
#define LOAD_EMPTY 2
#define LOAD_BAD 3

enum { LD_BUF = IO_PREFIX, LD_END, LD_POS, LD_ARENA_N, LD_LIT };

int sat_load_clauses(const int64_t *addr, int64_t *io, double *dio)
{
    core c;
    core_open(&c, addr, io, dio);
    const int32_t *buf = (const int32_t *)(intptr_t)io[LD_BUF];
    int64_t end = io[LD_END];
    int64_t pos = io[LD_POS];
    int64_t arena_n = io[LD_ARENA_N];
    int64_t ncla = c.ncla;
    int8_t *assigns = c.assigns, *seen = c.seen;
    int32_t *arena = c.arena;
    int status = LOAD_DONE;
    while (pos < end) {
        int64_t size = buf[pos];
        int64_t rec_end = pos + 1 + size;
        if (size < 0 || rec_end > end) {
            io[LD_LIT] = size;
            status = LOAD_BAD;
            break;
        }
        int64_t bad = -1;
        for (int64_t k = pos + 1; k < rec_end; k++) {
            int32_t lit = buf[k];
            if (lit < 0 || (lit >> 1) >= c.nvars) { bad = k; break; }
        }
        if (bad != -1) {
            io[LD_LIT] = buf[bad];
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
            c.cla_off[ncla] = (int32_t)arena_n;
            c.cla_flags[ncla] = 0;
            c.cla_act[ncla] = 0.0;
            /* Push the two watcher nodes onto the lists of the literals
             * that falsify the watched slots. */
            int32_t n0 = (int32_t)(ncla << 1);
            int32_t wl = arena[arena_n + 1] ^ 1;
            c.watch_next[n0] = c.watch_head[wl];
            c.watch_head[wl] = n0;
            wl = arena[arena_n + 2] ^ 1;
            c.watch_next[n0 | 1] = c.watch_head[wl];
            c.watch_head[wl] = n0 | 1;
            arena_n = w;
            ncla++;
            continue;
        }
        if (n == 1) {
            enqueue(&c, arena[arena_n + 1], -1);
            if (propagate(&c) == -1) continue;
            status = LOAD_CONFLICT;
        } else {
            status = LOAD_EMPTY;
        }
        break;
    }
    io[LD_POS] = pos;
    io[LD_ARENA_N] = arena_n;
    c.ncla = ncla;
    core_close(&c, io, dio);
    return status;
}

/* --- The CDCL loop (see search in pure.py) -------------------------- */

enum {
    SEARCH_SAT, SEARCH_UNSAT, SEARCH_ASSUMPTION, SEARCH_RESTART,
    SEARCH_REDUCE, SEARCH_GOVERNOR, SEARCH_BUDGET, SEARCH_ROOM
};
enum {
    RESUME_PROPAGATE, RESUME_ANALYZE, RESUME_GOVERNOR, RESUME_DECIDE,
    RESUME_BRANCH
};
/* io slots after the prefix (fast.py's _SEARCH_IO, then the rest). */
enum {
    S_RESUME = IO_PREFIX, S_AUX, S_RESTART_CONFLICTS, S_RESTART_LIMIT,
    S_N_LEARNTS, S_GOV_ACTIVE, S_BUDGET_ROOM, S_CHARGED_CONFLICTS,
    S_CHARGED_DECISIONS, S_ARENA_N, S_LOG_N,
    S_GOV_COUNTDOWN, S_ARENA_CAP, S_CLA_CAP, S_ASSUMPS, S_N_ASSUMPS,
    S_LOG, S_LOG_CAP,
    S_CONFLICTS, S_DECISIONS, S_LEARNT_CLAUSES, S_LEARNT_LITERALS /* out */
};
enum { SD_MAX_LEARNTS = DIO_PREFIX, SD_VAR_DECAY, SD_CLA_DECAY };

int sat_search(const int64_t *addr, int64_t *io, double *dio)
{
    core c;
    core_open(&c, addr, io, dio);
    int64_t stage = io[S_RESUME];
    int64_t aux = io[S_AUX];
    int64_t restart_conflicts = io[S_RESTART_CONFLICTS];
    int64_t restart_limit = io[S_RESTART_LIMIT];
    int64_t n_learnts = io[S_N_LEARNTS];
    int64_t gov_active = io[S_GOV_ACTIVE];
    int64_t room = io[S_BUDGET_ROOM];
    int64_t charged_conflicts = 0, charged_decisions = 0;
    int64_t arena_n = io[S_ARENA_N];
    int64_t log_n = io[S_LOG_N];
    int64_t gov_countdown = io[S_GOV_COUNTDOWN];
    int64_t arena_cap = io[S_ARENA_CAP], cla_cap = io[S_CLA_CAP];
    const int32_t *assumps = (const int32_t *)(intptr_t)io[S_ASSUMPS];
    int64_t n_assumps = io[S_N_ASSUMPS];
    int32_t *log = (int32_t *)(intptr_t)io[S_LOG];
    int64_t log_cap = io[S_LOG_CAP];
    int64_t conflicts = 0, decisions = 0, learnt_clauses = 0,
        learnt_literals = 0;
    double max_learnts = dio[SD_MAX_LEARNTS];
    double var_decay = dio[SD_VAR_DECAY], cla_decay = dio[SD_CLA_DECAY];
    int status;
    for (;;) {
        if (stage == RESUME_PROPAGATE) {
            int32_t confl = propagate(&c);
            if (confl == -1) {
                if (restart_conflicts >= restart_limit) {
                    restart_conflicts = 0;
                    cancel_until(&c, 0);
                    stage = RESUME_PROPAGATE;
                    status = SEARCH_RESTART;
                    break;
                }
                if ((double)n_learnts
                    >= max_learnts + (double)c.trail_n) {
                    stage = RESUME_GOVERNOR;
                    status = SEARCH_REDUCE;
                    break;
                }
                stage = RESUME_GOVERNOR;
            } else {
                conflicts++;
                restart_conflicts++;
                if (c.lim_n == 0) {
                    status = SEARCH_UNSAT;
                    break;
                }
                aux = confl;
                if (room == 0) {
                    stage = RESUME_ANALYZE;
                    status = SEARCH_BUDGET;
                    break;
                }
                room--;
                charged_conflicts++;
                stage = RESUME_ANALYZE;
            }
        }
        if (stage == RESUME_ANALYZE) {
            int64_t need = c.trail_n - c.trail_lim[0] + 1;
            if (arena_n + need > arena_cap || c.ncla == cla_cap
                || (log != 0 && log_n + need + 1 > log_cap)) {
                status = SEARCH_ROOM;
                break;
            }
            int32_t bt;
            int64_t n = analyze(&c, (int32_t)aux, &bt);
            const int32_t *learnt = c.learnt;
            if (log != 0) {
                log[log_n] = (int32_t)n;
                log[log_n + 1] = bt;
                for (int64_t k = 0; k < n; k++) log[log_n + 2 + k] = learnt[k];
                log_n += 2 + n;
            }
            cancel_until(&c, bt);
            if (n == 1) {
                enqueue(&c, learnt[0], -1);
            } else {
                /* Store into the reserved tails and attach (push both
                 * watcher nodes onto the lists of the negated watches). */
                int32_t cid = (int32_t)c.ncla;
                int64_t off = arena_n;
                c.arena[off] = (int32_t)n;
                for (int64_t k = 0; k < n; k++) c.arena[off + 1 + k] = learnt[k];
                c.cla_off[cid] = (int32_t)off;
                c.cla_flags[cid] = 1;
                c.cla_act[cid] = 0.0;
                int32_t n0 = cid << 1;
                int32_t w = learnt[0] ^ 1;
                c.watch_next[n0] = c.watch_head[w];
                c.watch_head[w] = n0;
                w = learnt[1] ^ 1;
                c.watch_next[n0 | 1] = c.watch_head[w];
                c.watch_head[w] = n0 | 1;
                arena_n = off + 1 + n;
                c.ncla = cid + 1;
                n_learnts++;
                bump_clause(&c, cid);
                learnt_clauses++;
                learnt_literals += n;
                enqueue(&c, learnt[0], cid);
            }
            c.var_inc *= var_decay;
            c.cla_inc *= cla_decay;
            stage = RESUME_PROPAGATE;
            continue;
        }
        if (stage == RESUME_GOVERNOR) {
            if (gov_active) {
                gov_countdown--;
                if (gov_countdown <= 0) {
                    gov_countdown = 256;
                    stage = RESUME_DECIDE;
                    status = SEARCH_GOVERNOR;
                    break;
                }
            }
            stage = RESUME_DECIDE;
        }
        if (stage == RESUME_DECIDE) {
            /* Re-apply assumptions not yet on the trail. */
            int64_t lvl = c.lim_n;
            if (lvl < n_assumps) {
                int32_t p = assumps[lvl];
                int8_t v = c.assigns[p >> 1];
                if (v != UNASSIGNED && (v ^ (p & 1)) == 1) {
                    /* Already satisfied: open a dummy level to keep the
                     * level <-> assumption-index correspondence. */
                    c.trail_lim[c.lim_n++] = (int32_t)c.trail_n;
                    stage = RESUME_PROPAGATE;
                    continue;
                }
                if (v != UNASSIGNED) {
                    aux = p;
                    status = SEARCH_ASSUMPTION;
                    break;
                }
                c.trail_lim[c.lim_n++] = (int32_t)c.trail_n;
                enqueue(&c, p, -1);
                stage = RESUME_PROPAGATE;
                continue;
            }
            aux = pick_branch(&c);
            if (aux == -1) {
                status = SEARCH_SAT; /* all variables assigned */
                break;
            }
            decisions++;
            if (room == 0) {
                stage = RESUME_BRANCH;
                status = SEARCH_BUDGET;
                break;
            }
            room--;
            charged_decisions++;
        }
        /* RESUME_BRANCH: assign the decision variable in its saved
         * phase. */
        c.trail_lim[c.lim_n++] = (int32_t)c.trail_n;
        enqueue(&c, (int32_t)(aux << 1 | (c.saved_phase[aux] == 0)), -1);
        stage = RESUME_PROPAGATE;
    }
    io[S_RESUME] = stage;
    io[S_AUX] = aux;
    io[S_RESTART_CONFLICTS] = restart_conflicts;
    io[S_N_LEARNTS] = n_learnts;
    io[S_BUDGET_ROOM] = room;
    io[S_CHARGED_CONFLICTS] = charged_conflicts;
    io[S_CHARGED_DECISIONS] = charged_decisions;
    io[S_ARENA_N] = arena_n;
    io[S_LOG_N] = log_n;
    io[S_GOV_COUNTDOWN] = gov_countdown;
    io[S_CONFLICTS] = conflicts;
    io[S_DECISIONS] = decisions;
    io[S_LEARNT_CLAUSES] = learnt_clauses;
    io[S_LEARNT_LITERALS] = learnt_literals;
    core_close(&c, io, dio);
    return status;
}
