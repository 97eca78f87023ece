/* Compiled RUP core of the DRUP proof checker.
 *
 * repro/certify/drup.py holds the checker: its front (variable
 * numbering, text parsing, the deletion-key index, verdict bookkeeping)
 * and its reference core, a list-based twin of every loop here.  This
 * file runs the same algorithm over flat arrays that the Python side
 * (repro/certify/rupcore.py) allocates and grows; it never allocates.
 * It shares no code with the SAT engine's repro/sat/core/_core.c: the
 * checker must not trust the solver's propagation.
 *
 * Literals are the front's internal signed ints (+v / -v, 1 <= v <=
 * cap).  Per-literal tables are addressed through a pointer to their
 * middle slot, so table[lit] works for either sign.
 *
 * Database, as in drup.py:
 * - the clause arena holds each clause as [size, lits...] (repeated
 *   literals dropped on store); cla_off[c] is clause c's size word;
 * - clauses of three or more literals are watched by two literals:
 *   watch slot 2c and 2c+1 sit in the watch lists of its first two
 *   literals (singly linked through wnext, head per literal);
 * - a binary clause (a, b) puts slot 2c in the implication list of -a
 *   (it implies b) and 2c+1 in that of -b (it implies a);
 * - a PB constraint sum coef*lit >= bound keeps its terms by
 *   decreasing coefficient and a slack counter (max achievable left
 *   side over non-false literals, minus the bound); term t sits in the
 *   occurrence list of the literal that falsifies it.
 * Deleted clauses are flagged and unlinked from a list when a
 * propagation walks past them.
 *
 * The level-0 trail is kept at the unit-propagation fixpoint of the
 * database; each check assigns its seed on top, propagates and rolls
 * back.  A deletion of a unit, of a level-0 reason or of any clause
 * while level 0 is in conflict marks the trail stale, and the next
 * check rebuilds it from the surviving units.
 *
 * Every stateful entry point takes the address table (one int64 per
 * array, in rupcore.py's _ARRAYS order), the int64 state block (S_*),
 * then its own arguments.
 */

#include <stdint.h>
#include <string.h>

enum {
    S_CAP,        /* per-literal tables hold literals -cap .. cap */
    S_NCLA,       /* clauses stored */
    S_ATTACHED,   /* clauses attached to the watch / implication lists */
    S_ARENA_N,    /* arena words in use */
    S_NPB,        /* PB constraints */
    S_NTERM,      /* PB terms */
    S_NUNITS,     /* unit clauses (ids in units) */
    S_NPBUNITS,   /* literals PB constraints force outright */
    S_TRAIL_N,
    S_HEAD0,      /* trail prefix whose consequences are propagated */
    S_CONFLICT0,  /* level 0 is in conflict */
    S_STALE,      /* a deletion may have shrunk the fixpoint */
    S_PROPS,      /* literals propagated by checks */
    S_REBUILDS,
    S_SLOTS
};

#define F_DELETED 1
#define F_REASON 2 /* implied a level-0 literal since the last rebuild */

typedef struct {
    int8_t *val;
    int32_t *watch_head, *bin_head, *occ_head;
    int32_t *trail;
    int32_t *arena, *cla_off;
    int8_t *flag;
    int32_t *wnext, *units;
    int32_t *pb_off, *pb_len;
    int64_t *slack0, *slack;
    int32_t *term_lit;
    int64_t *term_coef;
    int32_t *term_pb, *occ_next, *pb_units;
    int64_t *st;
} rup;

static void rup_open(rup *r, const int64_t *addr, int64_t *st)
{
#define A(i) ((void *)(intptr_t)addr[i])
    int64_t cap = st[S_CAP];
    r->val = (int8_t *)A(0) + cap;
    r->watch_head = (int32_t *)A(1) + cap;
    r->bin_head = (int32_t *)A(2) + cap;
    r->occ_head = (int32_t *)A(3) + cap;
    r->trail = A(4);
    r->arena = A(5);
    r->cla_off = A(6);
    r->flag = A(7);
    r->wnext = A(8);
    r->units = A(9);
    r->pb_off = A(10);
    r->pb_len = A(11);
    r->slack0 = A(12);
    r->slack = A(13);
    r->term_lit = A(14);
    r->term_coef = A(15);
    r->term_pb = A(16);
    r->occ_next = A(17);
    r->pb_units = A(18);
#undef A
    r->st = st;
}

static inline void assign(rup *r, int32_t lit)
{
    r->val[lit] = 1;
    r->val[-lit] = -1;
    r->trail[r->st[S_TRAIL_N]++] = lit;
}

/* Add lit to the level-0 trail (propagated lazily); reason is the
 * clause implying it, or -1. */
static void assign0(rup *r, int32_t lit, int64_t reason)
{
    int8_t have = r->val[lit];
    if (have == 0) {
        assign(r, lit);
        if (reason >= 0)
            r->flag[reason] |= F_REASON;
    } else if (have == -1) {
        r->st[S_CONFLICT0] = 1;
    }
}

/* Propagate the trail from *headp to fixpoint; 1 on a conflict.  At
 * level 0 the clauses that imply a literal are flagged as reasons. */
static int propagate(rup *r, int64_t *headp, int level0)
{
    int8_t *val = r->val;
    int32_t *trail = r->trail, *arena = r->arena, *cla_off = r->cla_off;
    int32_t *wnext = r->wnext, *watch_head = r->watch_head;
    int8_t *flag = r->flag;
    int64_t *st = r->st;
    int64_t head = *headp;
    while (head < st[S_TRAIL_N]) {
        int32_t lit = trail[head++];
        int32_t t = r->occ_head[lit];
        if (t >= 0) {
            /* Count every term this literal falsifies before any early
             * return, so a rollback restores exact slacks. */
            for (int32_t u = t; u >= 0; u = r->occ_next[u])
                r->slack[r->term_pb[u]] -= r->term_coef[u];
            for (int32_t u = t; u >= 0; u = r->occ_next[u]) {
                int32_t p = r->term_pb[u];
                int64_t s = r->slack[p];
                if (s < 0) {
                    *headp = head;
                    return 1;
                }
                int32_t k = r->pb_off[p], end = k + r->pb_len[p];
                for (; k < end && r->term_coef[k] > s; k++) {
                    int32_t q = r->term_lit[k];
                    if (val[q] == 0)
                        assign(r, q);
                }
            }
        }
        int32_t *link = &r->bin_head[lit];
        int32_t s;
        while ((s = *link) >= 0) {
            int32_t c = s >> 1;
            if (flag[c] & F_DELETED) {
                *link = wnext[s];
                continue;
            }
            int32_t q = arena[cla_off[c] + 2 - (s & 1)];
            int8_t have = val[q];
            if (have == 0) {
                assign(r, q);
                if (level0)
                    flag[c] |= F_REASON;
            } else if (have == -1) {
                *headp = head;
                return 1;
            }
            link = &wnext[s];
        }
        int32_t false_lit = -lit;
        link = &watch_head[false_lit];
        while ((s = *link) >= 0) {
            int32_t c = s >> 1;
            if (flag[c] & F_DELETED) {
                *link = wnext[s];
                continue;
            }
            int32_t *cl = arena + cla_off[c] + 1;
            int32_t size = cl[-1];
            int32_t other = cl[0];
            if (other == false_lit) {
                other = cl[1];
                cl[0] = other;
                cl[1] = false_lit;
            }
            int8_t have = val[other];
            if (have != 1) {
                int32_t k = 2;
                while (k < size && val[cl[k]] == -1)
                    k++;
                if (k < size) {
                    /* Move this watch to the non-false literal. */
                    int32_t q = cl[k];
                    cl[1] = q;
                    cl[k] = false_lit;
                    *link = wnext[s];
                    wnext[s] = watch_head[q];
                    watch_head[q] = s;
                    continue;
                }
                if (have == -1) {
                    *headp = head;
                    return 1;
                }
                assign(r, other);
                if (level0)
                    flag[c] |= F_REASON;
            }
            link = &wnext[s];
        }
    }
    *headp = head;
    return 0;
}

/* Move up to two non-false literals of clause c to the watch
 * positions; a clause left with one (or none) is unit (or a conflict)
 * at level 0. */
static void watch_non_false(rup *r, int32_t c)
{
    int32_t *cl = r->arena + r->cla_off[c] + 1;
    int32_t size = cl[-1], k = 0;
    for (int32_t i = 0; i < size; i++) {
        int32_t q = cl[i];
        if (r->val[q] != -1) {
            cl[i] = cl[k];
            cl[k] = q;
            if (++k == 2)
                return;
        }
    }
    if (k == 0)
        r->st[S_CONFLICT0] = 1;
    else if (r->val[cl[0]] == 0)
        assign0(r, cl[0], c);
}

/* Attach the clauses stored since the last attach, and extend the
 * level-0 trail by the units and clauses that are unit under it. */
static void attach(rup *r)
{
    int64_t *st = r->st;
    int settled = !(st[S_STALE] || st[S_CONFLICT0]);
    int64_t end = st[S_NCLA];
    for (int64_t c = st[S_ATTACHED]; c < end; c++) {
        if (r->flag[c] & F_DELETED)
            continue;
        int32_t *cl = r->arena + r->cla_off[c] + 1;
        int32_t size = cl[-1];
        if (size == 1) {
            r->units[st[S_NUNITS]++] = (int32_t)c;
            if (settled) {
                assign0(r, cl[0], -1);
                settled = !st[S_CONFLICT0];
            }
            continue;
        }
        /* No literal is false while the trail is empty. */
        if (settled && st[S_TRAIL_N]
            && (r->val[cl[0]] == -1 || r->val[cl[1]] == -1)) {
            watch_non_false(r, (int32_t)c);
            settled = !st[S_CONFLICT0];
        }
        int32_t *head = size == 2 ? r->bin_head : r->watch_head;
        int32_t a = size == 2 ? -cl[0] : cl[0];
        int32_t b = size == 2 ? -cl[1] : cl[1];
        int32_t slot = (int32_t)(2 * c);
        r->wnext[slot] = head[a];
        head[a] = slot;
        r->wnext[slot + 1] = head[b];
        head[b] = slot + 1;
    }
    st[S_ATTACHED] = end;
}

/* Re-derive the level-0 trail from the surviving units. */
static void rebuild(rup *r)
{
    int64_t *st = r->st;
    st[S_REBUILDS]++;
    for (int64_t i = 0; i < st[S_TRAIL_N]; i++) {
        int32_t lit = r->trail[i];
        r->val[lit] = 0;
        r->val[-lit] = 0;
    }
    st[S_TRAIL_N] = 0;
    st[S_HEAD0] = 0;
    for (int64_t c = 0; c < st[S_NCLA]; c++)
        r->flag[c] &= ~F_REASON;
    if (st[S_NPB]) /* with no PB yet the buffers may still be NULL */
        memcpy(r->slack, r->slack0, (size_t)st[S_NPB] * sizeof(int64_t));
    st[S_STALE] = 0;
    st[S_CONFLICT0] = 0;
    int64_t kept = 0;
    for (int64_t i = 0; i < st[S_NUNITS]; i++) {
        int32_t c = r->units[i];
        if (r->flag[c] & F_DELETED)
            continue;
        r->units[kept++] = c;
        assign0(r, r->arena[r->cla_off[c] + 1], -1);
    }
    st[S_NUNITS] = kept;
    for (int64_t i = 0; i < st[S_NPBUNITS]; i++)
        assign0(r, r->pb_units[i], -1);
}

/* Bring level 0 to its fixpoint; 1 when it is in conflict. */
static int settle(rup *r)
{
    int64_t *st = r->st;
    if (st[S_ATTACHED] < st[S_NCLA])
        attach(r);
    if (st[S_STALE])
        rebuild(r);
    if (!st[S_CONFLICT0] && st[S_HEAD0] < st[S_TRAIL_N])
        st[S_CONFLICT0] = propagate(r, &st[S_HEAD0], 1);
    return (int)st[S_CONFLICT0];
}

/* --- Exported entry points ------------------------------------------- */

/* Validate a block of length-prefixed records in one pass.  Returns 0,
 * 1 when a size word is negative or overruns the block (out[0] = its
 * position), or 2 when a record holds a zero literal (out[0] = the
 * first such record); size errors win, as anywhere in the block they
 * make the record boundaries meaningless.  out[1] = records, out[2] =
 * empty records, out[3] = the largest |word|. */
int rup_scan(const int32_t *w, int64_t n, int64_t *out)
{
    int64_t pos = 0, recs = 0, empty = 0, top = 0, zero_at = -1;
    while (pos < n) {
        int64_t size = w[pos];
        if (size < 0 || size > n - pos - 1) {
            out[0] = pos;
            return 1;
        }
        if (size > top)
            top = size;
        if (size == 0)
            empty++;
        for (int64_t k = pos + 1; k <= pos + size; k++) {
            int64_t lit = w[k];
            if (lit < 0)
                lit = -lit;
            if (lit > top)
                top = lit;
            else if (lit == 0 && zero_at < 0)
                zero_at = pos;
        }
        recs++;
        pos += 1 + size;
    }
    out[1] = recs;
    out[2] = empty;
    out[3] = top;
    if (zero_at >= 0) {
        out[0] = zero_at;
        return 2;
    }
    return 0;
}

/* Store the non-empty records of a validated block of internal
 * literals, dropping repeated literals; they are attached at the next
 * settle.  The caller has made room for every word and record. */
void rup_store(const int64_t *addr, int64_t *st, const int32_t *w,
               int64_t n)
{
    rup r;
    rup_open(&r, addr, st);
    int32_t *arena = r.arena;
    int64_t at = st[S_ARENA_N], c = st[S_NCLA];
    int64_t pos = 0;
    while (pos < n) {
        int32_t size = w[pos];
        const int32_t *lits = w + pos + 1;
        pos += 1 + size;
        if (size == 0)
            continue;
        int32_t *cl = arena + at + 1;
        int32_t kept = 0;
        for (int32_t i = 0; i < size; i++) {
            int32_t q = lits[i];
            int32_t j = 0;
            while (j < kept && cl[j] != q)
                j++;
            if (j == kept)
                cl[kept++] = q;
        }
        arena[at] = kept;
        r.cla_off[c] = (int32_t)at;
        r.flag[c] = 0;
        c++;
        at += 1 + kept;
    }
    st[S_ARENA_N] = at;
    st[S_NCLA] = c;
}

/* Attach pending clauses (the front reads the arena for its deletion
 * keys only after this). */
void rup_attach(const int64_t *addr, int64_t *st)
{
    rup r;
    rup_open(&r, addr, st);
    if (st[S_ATTACHED] < st[S_NCLA])
        attach(&r);
}

int rup_settle(const int64_t *addr, int64_t *st)
{
    rup r;
    rup_open(&r, addr, st);
    return settle(&r);
}

/* Assert seed on top of the level-0 trail and propagate; 1 iff a
 * conflict is derived.  The trail is rolled back to level 0. */
int rup_refutes(const int64_t *addr, int64_t *st, const int32_t *seed,
                int64_t n)
{
    rup r;
    rup_open(&r, addr, st);
    if (settle(&r))
        return 1;
    int64_t mark = st[S_TRAIL_N], head = mark;
    int conflict = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t lit = seed[i];
        int8_t have = r.val[lit];
        if (have == 0) {
            assign(&r, lit);
        } else if (have == -1) {
            conflict = 1;
            break;
        }
    }
    if (!conflict)
        conflict = propagate(&r, &head, 0);
    st[S_PROPS] += head - mark;
    if (st[S_NPB]) {
        for (int64_t i = mark; i < head; i++)
            for (int32_t u = r.occ_head[r.trail[i]]; u >= 0;
                 u = r.occ_next[u])
                r.slack[r.term_pb[u]] += r.term_coef[u];
    }
    for (int64_t i = mark; i < st[S_TRAIL_N]; i++) {
        int32_t lit = r.trail[i];
        r.val[lit] = 0;
        r.val[-lit] = 0;
    }
    st[S_TRAIL_N] = mark;
    return conflict;
}

/* Store the PB constraint sum coefs*lits >= bound (n terms, positive
 * coefficients).  Returns 1 when it cannot be satisfied at all (slack
 * below zero under the empty assignment), else 0. */
int rup_add_pb(const int64_t *addr, int64_t *st, const int32_t *lits,
               const int64_t *coefs, int64_t n, int64_t bound)
{
    rup r;
    rup_open(&r, addr, st);
    int64_t p = st[S_NPB], t0 = st[S_NTERM];
    int64_t slack = -bound;
    /* Insertion sort by decreasing coefficient (PB constraints are
     * short next to the clause database). */
    for (int64_t i = 0; i < n; i++) {
        int64_t k = t0 + i;
        while (k > t0 && r.term_coef[k - 1] < coefs[i]) {
            r.term_coef[k] = r.term_coef[k - 1];
            r.term_lit[k] = r.term_lit[k - 1];
            k--;
        }
        r.term_coef[k] = coefs[i];
        r.term_lit[k] = lits[i];
        slack += coefs[i];
    }
    for (int64_t t = t0; t < t0 + n; t++) {
        int32_t f = -r.term_lit[t];
        r.term_pb[t] = (int32_t)p;
        r.occ_next[t] = r.occ_head[f];
        r.occ_head[f] = (int32_t)t;
    }
    r.pb_off[p] = (int32_t)t0;
    r.pb_len[p] = (int32_t)n;
    r.slack0[p] = slack;
    r.slack[p] = slack;
    st[S_NPB] = p + 1;
    st[S_NTERM] = t0 + n;
    if (slack < 0)
        return 1;
    for (int64_t t = t0; t < t0 + n && r.term_coef[t] > slack; t++)
        r.pb_units[st[S_NPBUNITS]++] = r.term_lit[t];
    if (settle(&r))
        return 0;
    /* Level 0 is at its fixpoint: count the terms it falsifies. */
    for (int64_t t = t0; t < t0 + n; t++)
        if (r.val[r.term_lit[t]] == -1)
            slack -= r.term_coef[t];
    r.slack[p] = slack;
    if (slack < 0) {
        st[S_CONFLICT0] = 1;
        return 0;
    }
    for (int64_t t = t0; t < t0 + n && r.term_coef[t] > slack; t++)
        if (r.val[r.term_lit[t]] == 0)
            assign0(&r, r.term_lit[t], -1);
    return 0;
}

/* Delete clause c (found by the front's key index). */
void rup_delete(const int64_t *addr, int64_t *st, int64_t c)
{
    rup r;
    rup_open(&r, addr, st);
    if (st[S_ATTACHED] < st[S_NCLA])
        attach(&r);
    if (st[S_CONFLICT0] || r.arena[r.cla_off[c]] == 1
        || (r.flag[c] & F_REASON))
        st[S_STALE] = 1;
    r.flag[c] |= F_DELETED;
}

/* --- Model evaluation (SAT probes) ----------------------------------- */

/* A DIMACS literal's value under model (one byte per variable, v at
 * model[v - 1]; variables past nvars are false). */
static inline int is_true(int64_t lit, const int8_t *model, int64_t nvars)
{
    int64_t var = lit < 0 ? -lit : lit;
    int t = var >= 1 && var <= nvars && model[var - 1];
    return lit > 0 ? t : !t && var != 0;
}

/* First record of a block of length-prefixed DIMACS clauses that model
 * falsifies: its position, -1 when every record holds, -2 when the
 * block is malformed. */
int64_t rup_eval_clauses(const int32_t *w, int64_t n, const int8_t *model,
                         int64_t nvars)
{
    int64_t pos = 0;
    while (pos < n) {
        int64_t size = w[pos];
        if (size < 0 || size > n - pos - 1)
            return -2;
        int64_t k = pos + 1, end = pos + 1 + size;
        while (k < end && !is_true(w[k], model, nvars))
            k++;
        if (k == end)
            return pos;
        pos = end;
    }
    return -1;
}

/* First PB record [n, bound, coef_1, lit_1, ...] that model violates:
 * its position, -1 when every record holds, -2 when malformed. */
int64_t rup_eval_pbs(const int64_t *w, int64_t n, const int8_t *model,
                     int64_t nvars)
{
    int64_t pos = 0;
    while (pos < n) {
        int64_t size = w[pos];
        if (n - pos < 2 || size < 0 || size > (n - pos - 2) / 2)
            return -2;
        int64_t total = 0;
        for (int64_t k = pos + 2; k < pos + 2 + 2 * size; k += 2)
            if (is_true(w[k + 1], model, nvars))
                total += w[k];
        if (total < w[pos + 1])
            return pos;
        pos += 2 + 2 * size;
    }
    return -1;
}
