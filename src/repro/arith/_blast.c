/* Compiled core of the bit-blaster.
 *
 * repro/arith/bitblast.py holds the blaster's front (the clause buffer,
 * the variable counter, the flush to the SAT engine) and its reference
 * gate library, a Python twin of every circuit here.  This file runs
 * the same circuits, gate by gate in the same order, over flat arrays
 * that repro/arith/blastcore.py allocates and grows.  It never
 * allocates and keeps no state of its own: everything lives in the
 * arrays and the int64 state block (S_*) of one blaster, so blasters on
 * several threads share nothing.
 *
 * Literals are the SAT engine's packed ints (2 * var + sign).  The
 * constant-true literal is created on first use, exactly where the
 * reference creates it; until then S_TRUE holds -2, which (like its
 * complement -1) matches no literal.
 *
 * One call runs a program of queued triplet definitions (blast_run).
 * Each operation is checked for room before it runs: when an output
 * array could overflow, the call stops at that operation with the sizes
 * it needs in S_NEED_*, the Python side grows the arrays and calls
 * again, and the run resumes at S_PC.  An operation never runs half.
 *
 * Program words (int64):
 *   OP_ADD | OP_SUB | OP_MUL, <ref out>, <operand a>, <operand b>
 *   OP_EQ | OP_LT | OP_LE, out token, <operand a>, <operand b>
 *   OP_AND | OP_OR, out token, n, n tokens
 *   OP_VEC, <ref>                       (a bare vector request)
 *   OP_ROOT, root token, guard token    (assert root, or guard -> root;
 *                                        guard -1: none)
 *   OP_REBASE, engine variables         (renumber after the engine's
 *                                        last variable if nothing waits)
 * <ref>      R_VEC slot | R_NEW slot <const lo> <const hi>
 * <operand>  <ref> | <const>
 * <const>    R_INT value | R_BIG n limb_0 .. limb_{n-1}
 * A big constant is its two's complement in n 32-bit limbs (LSB limb
 * first); bits past the last limb repeat its top bit.
 *
 * Gate caches are open-addressing tables with linear probing and no
 * deletions; a slot is empty while its out word is -1.  AND, XOR: [a,
 * b, out]; MAJ: [a, b, c, out]; n-ary AND: [hash, key offset, n, out],
 * the sorted key literals in the keys array.  Each is kept at most
 * half full.
 *
 * Vectors live in one arena; vec_off / vec_w give slot s's offset and
 * width.  tok_lit maps a Boolean token's index (token >> 1) to its base
 * literal, -1 while unmapped.
 */

#include <stdint.h>
#include <string.h>

enum {
    S_NEXT_VAR,   /* next free variable */
    S_HEAD,       /* variables below it were allocated before the
                     buffer's first record */
    S_TRUE,       /* constant-true literal, or -2 */
    S_BUF_BASE,   /* words already buffered on the Python side */
    S_OUT_N,      /* words emitted by this run */
    S_OUT_CAP,
    S_GATES,
    S_HITS,
    S_NARROWED,
    S_NARROW,     /* range narrowing on */
    S_AND_CAP, S_AND_N,
    S_XOR_CAP, S_XOR_N,
    S_MAJ_CAP, S_MAJ_N,
    S_MANY_CAP, S_MANY_N,
    S_KEYS_N, S_KEYS_CAP,
    S_ARENA_N, S_ARENA_CAP,
    S_SLOTS_CAP,
    S_TOK_CAP,
    S_SCRATCH_CAP,
    S_PC,         /* next program word */
    S_NEED_OUT, S_NEED_GATES, S_NEED_KEYS, S_NEED_ARENA, S_NEED_SCRATCH,
    S_SLOTS
};

enum { OP_ADD = 1, OP_SUB, OP_MUL, OP_EQ, OP_LT, OP_LE, OP_AND, OP_OR,
       OP_VEC, OP_ROOT, OP_REBASE };
enum { R_VEC = 1, R_NEW, R_INT, R_BIG };
enum { TOK_TRUE = -2, TOK_FALSE = -3 };

/* blast_run status */
enum { DONE = 0, NEED_ROOM = 1, TOO_WIDE = 2, BAD_PROGRAM = 3 };

/* Widths past this, or variables past MAX_VARS, are refused (TOO_WIDE)
 * rather than wrapped: the Python side raises. */
#define MAX_WIDTH (1 << 20)
#define MAX_VARS ((int64_t)1 << 30)

typedef struct {
    int32_t *out;
    int32_t *and2, *xor2, *maj3, *many;
    int32_t *keys;
    int32_t *arena, *vec_off, *vec_w;
    int32_t *tok_lit;
    int32_t *scratch;
    int64_t *st;
} blaster;

static void bl_open(blaster *b, const int64_t *addr, int64_t *st)
{
#define A(i) ((int32_t *)(intptr_t)addr[i])
    b->out = A(0);
    b->and2 = A(1);
    b->xor2 = A(2);
    b->maj3 = A(3);
    b->many = A(4);
    b->keys = A(5);
    b->arena = A(6);
    b->vec_off = A(7);
    b->vec_w = A(8);
    b->tok_lit = A(9);
    b->scratch = A(10);
#undef A
    b->st = st;
}

/* ------------------------------------------------------------------ */
/* Variables and emission                                              */
/* ------------------------------------------------------------------ */

static inline int32_t new_lit(blaster *b)
{
    int64_t *st = b->st;
    int64_t v = st[S_NEXT_VAR]++;
    if (st[S_BUF_BASE] + st[S_OUT_N] == 0)
        st[S_HEAD] = v + 1;
    return (int32_t)(v << 1);
}

static inline void put(blaster *b, int32_t w)
{
    b->out[b->st[S_OUT_N]++] = w;
}

static inline void put_unit(blaster *b, int32_t a)
{
    put(b, 1);
    put(b, a);
}

static inline void put_bin(blaster *b, int32_t a, int32_t c)
{
    put(b, 2);
    put(b, a);
    put(b, c);
}

static inline void put_ter(blaster *b, int32_t a, int32_t c, int32_t d)
{
    put(b, 3);
    put(b, a);
    put(b, c);
    put(b, d);
}

static int32_t lit_true(blaster *b)
{
    if (b->st[S_TRUE] < 0) {
        int32_t t = new_lit(b);
        b->st[S_TRUE] = t;
        put_unit(b, t);
    }
    return (int32_t)b->st[S_TRUE];
}

static inline int32_t lit_false(blaster *b)
{
    return lit_true(b) ^ 1;
}

/* ------------------------------------------------------------------ */
/* Gate caches                                                         */
/* ------------------------------------------------------------------ */

static inline uint32_t mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return (uint32_t)x;
}

static inline uint32_t hash2(int32_t a, int32_t c)
{
    return mix64(((uint64_t)(uint32_t)a << 32) | (uint32_t)c);
}

static inline uint32_t hash3(int32_t a, int32_t c, int32_t d)
{
    return mix64(((uint64_t)hash2(a, c) << 32) | (uint32_t)d);
}

static uint32_t hash_many(const int32_t *k, int32_t n)
{
    uint32_t h = (uint32_t)n;
    for (int32_t i = 0; i < n; i++)
        h = mix64(((uint64_t)h << 32) | (uint32_t)k[i]);
    return h;
}

/* Slot of key (a, c) in a [a, c, out] table: the match, or the empty
 * slot where it goes. */
static int32_t *find2(int32_t *tab, int64_t cap, int32_t a, int32_t c)
{
    uint64_t mask = (uint64_t)cap - 1;
    uint64_t i = hash2(a, c) & mask;
    for (;;) {
        int32_t *s = tab + 3 * i;
        if (s[2] < 0 || (s[0] == a && s[1] == c))
            return s;
        i = (i + 1) & mask;
    }
}

static int32_t *find3(int32_t *tab, int64_t cap, int32_t a, int32_t c,
                      int32_t d)
{
    uint64_t mask = (uint64_t)cap - 1;
    uint64_t i = hash3(a, c, d) & mask;
    for (;;) {
        int32_t *s = tab + 4 * i;
        if (s[3] < 0 || (s[0] == a && s[1] == c && s[2] == d))
            return s;
        i = (i + 1) & mask;
    }
}

static int32_t *find_many(int32_t *tab, int64_t cap, const int32_t *keys,
                          const int32_t *k, int32_t n, uint32_t h)
{
    uint64_t mask = (uint64_t)cap - 1;
    uint64_t i = h & mask;
    for (;;) {
        int32_t *s = tab + 4 * i;
        if (s[3] < 0)
            return s;
        if ((uint32_t)s[0] == h && s[2] == n
                && memcmp(keys + s[1], k, sizeof(int32_t) * n) == 0)
            return s;
        i = (i + 1) & mask;
    }
}

/* Move every entry of a table into a larger empty one (all -1).
 * kind: 0 = [a, c, out], 1 = [a, c, d, out], 2 = n-ary. */
void blast_rehash(int64_t kind, const int32_t *old, int64_t oldcap,
                  int32_t *tab, int64_t cap, const int32_t *keys)
{
    int stride = kind == 0 ? 3 : 4;
    for (int64_t i = 0; i < oldcap; i++) {
        const int32_t *s = old + stride * i;
        int32_t *d;
        if (s[stride - 1] < 0)
            continue;
        if (kind == 0)
            d = find2(tab, cap, s[0], s[1]);
        else if (kind == 1)
            d = find3(tab, cap, s[0], s[1], s[2]);
        else
            d = find_many(tab, cap, keys, keys + s[1], s[2],
                          (uint32_t)s[0]);
        memcpy(d, s, sizeof(int32_t) * stride);
    }
}

/* ------------------------------------------------------------------ */
/* Gate library (with eager constant folding)                          */
/* ------------------------------------------------------------------ */

static int32_t gate_and(blaster *b, int32_t a, int32_t c)
{
    int32_t t = (int32_t)b->st[S_TRUE];
    int32_t f = t ^ 1;
    if (a == f || c == f)
        return f;
    if (a == t)
        return c;
    if (c == t)
        return a;
    if (a == c)
        return a;
    if (a == (c ^ 1))
        return lit_false(b);
    int32_t lo = a < c ? a : c, hi = a < c ? c : a;
    int32_t *s = find2(b->and2, b->st[S_AND_CAP], lo, hi);
    if (s[2] >= 0) {
        b->st[S_HITS]++;
        return s[2];
    }
    int32_t out = new_lit(b);
    b->st[S_GATES]++;
    int32_t o = out ^ 1;
    put_bin(b, o, a);
    put_bin(b, o, c);
    put_ter(b, out, a ^ 1, c ^ 1);
    s[0] = lo;
    s[1] = hi;
    s[2] = out;
    b->st[S_AND_N]++;
    return out;
}

static inline int32_t gate_or(blaster *b, int32_t a, int32_t c)
{
    return gate_and(b, a ^ 1, c ^ 1) ^ 1;
}

static int32_t gate_xor(blaster *b, int32_t a, int32_t c)
{
    int32_t t = (int32_t)b->st[S_TRUE];
    if (a == t)
        return c ^ 1;
    if (a == (t ^ 1))
        return c;
    if (c == t)
        return a ^ 1;
    if (c == (t ^ 1))
        return a;
    if (a == c)
        return lit_false(b);
    if (a == (c ^ 1))
        return lit_true(b);
    /* xor(~a, c) == ~xor(a, c): one gate per variable pair on the
     * positive polarities, the sign parity folded into the output. */
    int32_t parity = (a ^ c) & 1;
    int32_t pa = a & ~1, pc = c & ~1;
    if (pa > pc) {
        int32_t x = pa;
        pa = pc;
        pc = x;
    }
    int32_t *s = find2(b->xor2, b->st[S_XOR_CAP], pa, pc);
    if (s[2] >= 0) {
        b->st[S_HITS]++;
        return s[2] ^ parity;
    }
    int32_t out = new_lit(b);
    b->st[S_GATES]++;
    int32_t o = out ^ 1, na = pa ^ 1, nc = pc ^ 1;
    put_ter(b, o, pa, pc);
    put_ter(b, o, na, nc);
    put_ter(b, out, na, pc);
    put_ter(b, out, pa, nc);
    s[0] = pa;
    s[1] = pc;
    s[2] = out;
    b->st[S_XOR_N]++;
    return out ^ parity;
}

static void sort_lits(int32_t *k, int32_t n)
{
    for (int32_t i = 1; i < n; i++) {
        int32_t x = k[i], j = i;
        while (j > 0 && k[j - 1] > x) {
            k[j] = k[j - 1];
            j--;
        }
        k[j] = x;
    }
}

/* n-ary AND in one Tseitin gate; scratch holds 2n words. */
static int32_t gate_and_many(blaster *b, const int32_t *bits, int32_t n,
                             int32_t *scratch)
{
    int32_t t = (int32_t)b->st[S_TRUE];
    int32_t f = t ^ 1;
    int32_t *uniq = scratch, m = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t x = bits[i];
        int seen = 0, neg_seen = 0;
        for (int32_t j = 0; j < m; j++) {
            if (uniq[j] == x)
                seen = 1;
            else if (uniq[j] == (x ^ 1))
                neg_seen = 1;
        }
        if (x == f || neg_seen)
            return lit_false(b);
        if (x == t || seen)
            continue;
        uniq[m++] = x;
    }
    if (m == 0)
        return lit_true(b);
    if (m == 1)
        return uniq[0];
    if (m == 2)
        return gate_and(b, uniq[0], uniq[1]);
    int32_t *key = scratch + m;
    memcpy(key, uniq, sizeof(int32_t) * m);
    sort_lits(key, m);
    uint32_t h = hash_many(key, m);
    int32_t *s = find_many(b->many, b->st[S_MANY_CAP], b->keys, key, m, h);
    if (s[3] >= 0) {
        b->st[S_HITS]++;
        return s[3];
    }
    int32_t out = new_lit(b);
    b->st[S_GATES]++;
    int32_t o = out ^ 1;
    for (int32_t i = 0; i < m; i++)
        put_bin(b, o, uniq[i]);
    put(b, m + 1);
    put(b, out);
    for (int32_t i = 0; i < m; i++)
        put(b, uniq[i] ^ 1);
    int64_t off = b->st[S_KEYS_N];
    memcpy(b->keys + off, key, sizeof(int32_t) * m);
    b->st[S_KEYS_N] = off + m;
    s[0] = (int32_t)h;
    s[1] = (int32_t)off;
    s[2] = m;
    s[3] = out;
    b->st[S_MANY_N]++;
    return out;
}

/* Majority of three literals in 6 clauses and one variable. */
static int32_t gate_maj(blaster *b, int32_t a, int32_t c, int32_t d)
{
    int32_t t = (int32_t)b->st[S_TRUE];
    int32_t f = t ^ 1;
    if (a == t)
        return gate_or(b, c, d);
    if (a == f)
        return gate_and(b, c, d);
    if (c == t)
        return gate_or(b, d, a);
    if (c == f)
        return gate_and(b, d, a);
    if (d == t)
        return gate_or(b, a, c);
    if (d == f)
        return gate_and(b, a, c);
    if (a == c || a == d)
        return a;
    if (c == d)
        return c;
    if (a == (c ^ 1))
        return d;
    if (a == (d ^ 1))
        return c;
    if (c == (d ^ 1))
        return a;
    int32_t lo, hi, k0, k1, k2;
    if (a < c) {
        lo = a;
        hi = c;
    } else {
        lo = c;
        hi = a;
    }
    if (d < lo) {
        k0 = d; k1 = lo; k2 = hi;
    } else if (d < hi) {
        k0 = lo; k1 = d; k2 = hi;
    } else {
        k0 = lo; k1 = hi; k2 = d;
    }
    int32_t *s = find3(b->maj3, b->st[S_MAJ_CAP], k0, k1, k2);
    if (s[3] >= 0) {
        b->st[S_HITS]++;
        return s[3];
    }
    int32_t out = new_lit(b);
    b->st[S_GATES]++;
    int32_t o = out ^ 1, na = a ^ 1, nc = c ^ 1, nd = d ^ 1;
    put_ter(b, o, a, c);
    put_ter(b, o, a, d);
    put_ter(b, o, c, d);
    put_ter(b, out, na, nc);
    put_ter(b, out, na, nd);
    put_ter(b, out, nc, nd);
    s[0] = k0;
    s[1] = k1;
    s[2] = k2;
    s[3] = out;
    b->st[S_MAJ_N]++;
    return out;
}

/* ------------------------------------------------------------------ */
/* Word-level circuits                                                 */
/* ------------------------------------------------------------------ */

/* w-bit ripple-carry sum x + y + carry into out (out may alias x). */
static void add_vec(blaster *b, const int32_t *x, const int32_t *y,
                    int32_t w, int32_t carry, int32_t *out)
{
    for (int32_t i = 0; i < w; i++) {
        int32_t xi = x[i], yi = y[i];
        int32_t s = gate_xor(b, gate_xor(b, xi, yi), carry);
        carry = gate_maj(b, xi, yi, carry);
        out[i] = s;
    }
}

/* w-bit product of x and y into acc; partial holds w words. */
static void mul_vec(blaster *b, const int32_t *x, const int32_t *y,
                    int32_t w, int32_t *acc, int32_t *partial)
{
    int32_t f0 = lit_false(b);
    for (int32_t i = 0; i < w; i++)
        acc[i] = f0;
    int32_t f = (int32_t)b->st[S_TRUE] ^ 1;
    for (int32_t i = 0; i < w; i++) {
        int32_t xi = x[i];
        if (xi == f)
            continue;
        int32_t fl = lit_false(b);
        for (int32_t j = 0; j < i; j++)
            partial[j] = fl;
        for (int32_t j = 0; j < w - i; j++)
            partial[i + j] = gate_and(b, xi, y[j]);
        add_vec(b, acc, partial, w, lit_false(b), acc);
    }
}

/* Sign-extend (or truncate) n bits to w into out. */
static void extend(const int32_t *bits, int32_t n, int32_t w, int32_t *out)
{
    if (n >= w) {
        memmove(out, bits, sizeof(int32_t) * w);
        return;
    }
    memmove(out, bits, sizeof(int32_t) * n);
    for (int32_t i = n; i < w; i++)
        out[i] = bits[n - 1];
}

static int32_t unsigned_lt(blaster *b, const int32_t *x, const int32_t *y,
                           int32_t w)
{
    int32_t lt = lit_false(b);
    for (int32_t i = 0; i < w; i++)
        lt = gate_maj(b, x[i] ^ 1, y[i], lt);
    return lt;
}

/* Signed x <= y (both w bits) via MSB flip; scratch holds 2w words. */
static int32_t le_signed(blaster *b, const int32_t *x, const int32_t *y,
                         int32_t w, int32_t *scratch)
{
    int32_t *fx = scratch, *fy = scratch + w;
    memcpy(fx, x, sizeof(int32_t) * w);
    memcpy(fy, y, sizeof(int32_t) * w);
    fx[w - 1] ^= 1;
    fy[w - 1] ^= 1;
    return unsigned_lt(b, fy, fx, w) ^ 1;
}

/* Signed comparison of two w-bit vectors; scratch holds 3w words. */
static int32_t cmp_lit(blaster *b, int64_t op, int32_t *x, int32_t *y,
                       int32_t w, int32_t *scratch)
{
    if (op == OP_EQ) {
        int32_t *iff = scratch;
        for (int32_t i = 0; i < w; i++)
            iff[i] = gate_xor(b, x[i], y[i]) ^ 1;
        return gate_and_many(b, iff, w, scratch + w);
    }
    x[w - 1] ^= 1;
    y[w - 1] ^= 1;
    if (op == OP_LT)
        return unsigned_lt(b, x, y, w);
    return unsigned_lt(b, y, x, w) ^ 1;
}

/* Assert xs[i] <-> ys[i], constant bits folded into units. */
static void equate(blaster *b, const int32_t *xs, const int32_t *ys,
                   int32_t w)
{
    int32_t t = (int32_t)b->st[S_TRUE];
    int32_t f = t ^ 1;
    for (int32_t i = 0; i < w; i++) {
        int32_t a = xs[i], c = ys[i];
        if (a == c)
            continue;
        int a_const = a == t || a == f;
        if (a_const && (c == t || c == f)) {
            put_unit(b, f);
            continue;
        }
        if (a_const) {
            put_unit(b, a == t ? c : c ^ 1);
            continue;
        }
        if (c == t || c == f) {
            put_unit(b, c == t ? a : a ^ 1);
            continue;
        }
        put_bin(b, a ^ 1, c);
        put_bin(b, a, c ^ 1);
    }
}

/* ------------------------------------------------------------------ */
/* Constants                                                           */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t v;              /* the value when n == 0 */
    const int64_t *limbs;   /* else n 32-bit limbs */
    int64_t n;
} cst;

static inline int cst_bit(const cst *c, int64_t i)
{
    if (c->n == 0)
        return i < 63 ? (int)((c->v >> i) & 1) : c->v < 0;
    if (i >= 32 * c->n)
        i = 32 * c->n - 1;
    return (int)((c->limbs[i >> 5] >> (i & 31)) & 1);
}

static inline int cst_neg(const cst *c)
{
    return c->n == 0 ? c->v < 0 : cst_bit(c, 32 * c->n - 1);
}

/* Bits below the sign-repeating tail. */
static inline int64_t cst_top(const cst *c)
{
    return c->n == 0 ? 63 : 32 * c->n - 1;
}

/* Smallest two's-complement width holding the value (ranges.width_for
 * of [v, v]). */
static int64_t cst_width(const cst *c)
{
    int s = cst_neg(c);
    for (int64_t i = cst_top(c) - 1; i >= 0; i--)
        if (cst_bit(c, i) != s)
            return i + 2;
    return 1;
}

/* Whether bits 0 .. n-1 all equal bit. */
static int cst_low_all(const cst *c, int64_t n, int bit)
{
    for (int64_t i = 0; i < n; i++)
        if (cst_bit(c, i) != bit)
            return 0;
    return 1;
}

static void const_bits(blaster *b, const cst *c, int32_t w, int32_t *out)
{
    int32_t t = lit_true(b);
    int32_t f = t ^ 1;
    for (int32_t i = 0; i < w; i++)
        out[i] = cst_bit(c, i) ? t : f;
}

/* ------------------------------------------------------------------ */
/* Program parsing and room                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t kind;   /* R_VEC, R_NEW or R_INT (any constant) */
    int64_t slot;
    int64_t w;      /* vector width, or the constant's own width */
    cst lo, hi;     /* R_NEW: the range */
    cst c;          /* constant */
} operand;

typedef struct {
    int64_t out, gates, keys, arena, scratch, vars;
} cost;

static int64_t parse_cst(const int64_t *prog, int64_t pos, int64_t end,
                         cst *c)
{
    if (pos + 2 > end)
        return -1;
    if (prog[pos] == R_INT) {
        c->v = prog[pos + 1];
        c->limbs = 0;
        c->n = 0;
        return pos + 2;
    }
    if (prog[pos] != R_BIG || prog[pos + 1] < 1
            || pos + 2 + prog[pos + 1] > end)
        return -1;
    c->v = 0;
    c->n = prog[pos + 1];
    c->limbs = prog + pos + 2;
    return pos + 2 + c->n;
}

/* Parse an operand at pos; returns the next position, -1 on a bad
 * program, -2 on a width past MAX_WIDTH.  An R_NEW operand records its
 * width in vec_w at once (a pure function of its range), so a later
 * R_VEC of the same slot in the same operation reads it. */
static int64_t parse_operand(blaster *b, const int64_t *prog, int64_t pos,
                             int64_t end, operand *o, int refs_only)
{
    if (pos >= end)
        return -1;
    int64_t kind = prog[pos];
    if (kind == R_VEC || kind == R_NEW) {
        if (pos + 2 > end)
            return -1;
        int64_t slot = prog[pos + 1];
        if (slot < 0 || slot >= b->st[S_SLOTS_CAP])
            return -1;
        o->kind = kind;
        o->slot = slot;
        if (kind == R_VEC) {
            o->w = b->vec_w[slot];
            return o->w > 0 ? pos + 2 : -1;
        }
        pos = parse_cst(prog, pos + 2, end, &o->lo);
        if (pos < 0)
            return -1;
        pos = parse_cst(prog, pos, end, &o->hi);
        if (pos < 0)
            return -1;
        int64_t wl = cst_width(&o->lo), wh = cst_width(&o->hi);
        o->w = wl > wh ? wl : wh;
        if (o->w > MAX_WIDTH)
            return -2;
        b->vec_w[slot] = (int32_t)o->w;
        return pos;
    }
    if (refs_only)
        return -1;
    o->kind = R_INT;
    pos = parse_cst(prog, pos, end, &o->c);
    if (pos < 0)
        return -1;
    o->w = cst_width(&o->c);
    return o->w > MAX_WIDTH ? -2 : pos;
}

/* What creating a new w-bit vector may take: two range comparators. */
static void cost_new(cost *k, const operand *o)
{
    if (o->kind != R_NEW)
        return;
    int64_t w = o->w;
    k->gates += 2 * w;
    k->out += 48 * w + 4;
    k->arena += w;
    k->vars += 3 * w;
    k->scratch += 4 * w;
}

/* A Boolean token: TOK_TRUE, TOK_FALSE or one the token map holds. */
static int valid_tok(const blaster *b, int64_t tok)
{
    return tok == TOK_TRUE || tok == TOK_FALSE
        || (tok >= 0 && (tok >> 1) < b->st[S_TOK_CAP]);
}

/* Sizes an operation needs at most, or -1 / -2 from parsing. */
static int64_t parse_op(blaster *b, const int64_t *prog, int64_t pos,
                        int64_t end, operand *o, cost *k)
{
    memset(k, 0, sizeof(*k));
    k->out = 2;     /* the constant-true literal */
    k->vars = 1;
    int64_t op = prog[pos++];
    if (op >= OP_ADD && op <= OP_MUL) {
        for (int i = 0; i < 3; i++) {
            pos = parse_operand(b, prog, pos, end, &o[i], i == 0);
            if (pos < 0)
                return pos;
            cost_new(k, &o[i]);
        }
        int64_t w = o[0].w, ww = o[0].w + o[1].w + o[2].w;
        if (op == OP_MUL) {
            k->gates += 4 * w * w;
            k->out += 66 * w * w + 6 * w;
        } else {
            k->gates += 3 * w;
            k->out += 62 * w;
        }
        k->scratch += 8 * ww;
    } else if (op >= OP_EQ && op <= OP_LE) {
        if (pos >= end)
            return -1;
        int64_t tok = prog[pos++];
        if (tok < 0 || (tok >> 1) >= b->st[S_TOK_CAP])
            return -1;
        for (int i = 0; i < 2; i++) {
            pos = parse_operand(b, prog, pos, end, &o[i], 0);
            if (pos < 0)
                return pos;
            cost_new(k, &o[i]);
        }
        int64_t w = o[0].w > o[1].w ? o[0].w : o[1].w;
        k->gates += w + 1;
        k->out += 24 * w + 8;
        k->keys += w;
        k->scratch += 8 * (w + o[0].w + o[1].w);
        k->vars += 1;
    } else if (op == OP_AND || op == OP_OR) {
        if (pos + 2 > end)
            return -1;
        int64_t n = prog[pos + 1];
        if (n < 0 || pos + 2 + n > end)
            return -1;
        for (int64_t i = 0; i < n + 2; i++)
            if (i != 1 && !valid_tok(b, prog[pos + i]))   /* 1: count */
                return -1;
        pos += 2 + n;
        k->out += 4 * n + 2;
        k->scratch += n;
        k->vars += n + 1;
    } else if (op == OP_VEC) {
        pos = parse_operand(b, prog, pos, end, &o[0], 1);
        if (pos < 0)
            return pos;
        cost_new(k, &o[0]);
    } else if (op == OP_ROOT) {
        if (pos + 2 > end || !valid_tok(b, prog[pos])
                || !(prog[pos + 1] == -1 || valid_tok(b, prog[pos + 1])))
            return -1;
        pos += 2;
        k->out += 3;
        k->vars += 2;
    } else if (op == OP_REBASE) {
        if (pos + 1 > end)
            return -1;
        pos += 1;
    } else {
        return -1;
    }
    k->vars += k->gates + k->arena;
    return pos;
}

/* Whether the arrays hold an operation of cost k; else the sizes it
 * needs go to S_NEED_*. */
static int has_room(blaster *b, const cost *k)
{
    int64_t *st = b->st;
    int64_t g = k->gates;
    int ok = st[S_OUT_N] + k->out <= st[S_OUT_CAP]
        && 2 * (st[S_AND_N] + g) <= st[S_AND_CAP]
        && 2 * (st[S_XOR_N] + g) <= st[S_XOR_CAP]
        && 2 * (st[S_MAJ_N] + g) <= st[S_MAJ_CAP]
        && 2 * (st[S_MANY_N] + g) <= st[S_MANY_CAP]
        && st[S_KEYS_N] + k->keys <= st[S_KEYS_CAP]
        && st[S_ARENA_N] + k->arena <= st[S_ARENA_CAP]
        && k->scratch <= st[S_SCRATCH_CAP];
    if (!ok) {
        st[S_NEED_OUT] = st[S_OUT_N] + k->out;
        st[S_NEED_GATES] = g;
        st[S_NEED_KEYS] = st[S_KEYS_N] + k->keys;
        st[S_NEED_ARENA] = st[S_ARENA_N] + k->arena;
        st[S_NEED_SCRATCH] = k->scratch;
    }
    return ok;
}

/* ------------------------------------------------------------------ */
/* Operations                                                          */
/* ------------------------------------------------------------------ */

/* The vector of a R_VEC / R_NEW operand, created (with its range
 * asserts) on first use; scratch holds 4w words. */
static int32_t *vector(blaster *b, const operand *o, int32_t *scratch)
{
    int64_t *st = b->st;
    if (o->kind == R_VEC)
        return b->arena + b->vec_off[o->slot];
    int32_t w = (int32_t)o->w;
    int64_t off = st[S_ARENA_N];
    int32_t *vec = b->arena + off;
    b->vec_off[o->slot] = (int32_t)off;
    b->vec_w[o->slot] = w;
    st[S_ARENA_N] = off + w;
    int32_t *cb = scratch, *sc = scratch + w;
    if (st[S_NARROW] && !cst_neg(&o->lo)) {
        /* Non-negative range: the sign bit and any bit past hi's
         * magnitude are hardwired to false. */
        int32_t nbits = (int32_t)cst_width(&o->hi) - 1;
        for (int32_t i = 0; i < nbits; i++)
            vec[i] = new_lit(b);
        int32_t f = lit_false(b);
        for (int32_t i = nbits; i < w; i++)
            vec[i] = f;
        st[S_NARROWED] += w - nbits;
        if (!cst_low_all(&o->lo, cst_top(&o->lo), 0)) {   /* lo > 0 */
            const_bits(b, &o->lo, w, cb);
            put_unit(b, le_signed(b, cb, vec, w, sc));
        }
        if (!cst_low_all(&o->hi, nbits, 1)) {   /* hi != 2^nbits - 1 */
            const_bits(b, &o->hi, w, cb);
            put_unit(b, le_signed(b, vec, cb, w, sc));
        }
        return vec;
    }
    for (int32_t i = 0; i < w; i++)
        vec[i] = new_lit(b);
    /* lo == -2^(w-1) and hi == 2^(w-1) - 1 are vacuous. */
    if (!(cst_neg(&o->lo) && cst_low_all(&o->lo, w - 1, 0))) {
        const_bits(b, &o->lo, w, cb);
        put_unit(b, le_signed(b, cb, vec, w, sc));
    }
    if (!(!cst_neg(&o->hi) && cst_low_all(&o->hi, w - 1, 1))) {
        const_bits(b, &o->hi, w, cb);
        put_unit(b, le_signed(b, vec, cb, w, sc));
    }
    return vec;
}

/* An operand's bits at width w into out (sign-extended or truncated). */
static void operand_bits(blaster *b, const operand *o, int32_t w,
                         int32_t *out, int32_t *scratch)
{
    if (o->kind == R_INT) {
        const_bits(b, &o->c, w, out);
        return;
    }
    int32_t *vec = vector(b, o, scratch);
    extend(vec, b->vec_w[o->slot], w, out);
}

static int32_t token_lit(blaster *b, int64_t tok)
{
    if (tok == TOK_TRUE)
        return lit_true(b);
    if (tok == TOK_FALSE)
        return lit_false(b);
    int32_t *base = b->tok_lit + (tok >> 1);
    if (*base < 0)
        *base = new_lit(b);
    return *base ^ (int32_t)(tok & 1);
}

static void run_arith(blaster *b, int64_t op, const operand *o)
{
    int32_t *sc = b->scratch;
    int32_t *out_vec = vector(b, &o[0], sc);
    int32_t w = (int32_t)o[0].w;
    int32_t *xa = sc, *xb = sc + w, *res = sc + 2 * w, *tmp = sc + 3 * w;
    operand_bits(b, &o[1], w, xa, tmp);
    operand_bits(b, &o[2], w, xb, tmp);
    if (op == OP_ADD) {
        add_vec(b, xa, xb, w, lit_false(b), res);
    } else if (op == OP_SUB) {
        for (int32_t i = 0; i < w; i++)
            xb[i] ^= 1;
        add_vec(b, xa, xb, w, lit_true(b), res);
    } else {
        mul_vec(b, xa, xb, w, res, tmp);
    }
    equate(b, out_vec, res, w);
}

static void run_cmp(blaster *b, int64_t op, int64_t tok, const operand *o)
{
    int32_t *sc = b->scratch;
    int32_t w = (int32_t)(o[0].w > o[1].w ? o[0].w : o[1].w);
    int32_t *xa = sc, *xb = sc + w, *tmp = sc + 2 * w;
    /* Each operand at its own width first, as the reference reads it;
     * a constant's bits at width w are the same literals. */
    for (int i = 0; i < 2; i++) {
        int32_t *dst = i ? xb : xa;
        if (o[i].kind == R_INT) {
            const_bits(b, &o[i].c, w, dst);
        } else {
            int32_t *vec = vector(b, &o[i], tmp);
            extend(vec, (int32_t)o[i].w, w, dst);
        }
    }
    int32_t lit = cmp_lit(b, op, xa, xb, w, tmp);
    int32_t *base = b->tok_lit + (tok >> 1);
    if (*base < 0) {
        *base = lit;
        return;
    }
    int32_t out = token_lit(b, tok);
    put_bin(b, out ^ 1, lit);
    put_bin(b, out, lit ^ 1);
}

static void run_bool(blaster *b, int64_t op, const int64_t *words)
{
    int32_t out = token_lit(b, words[0]);
    int64_t n = words[1];
    int32_t *args = b->scratch;
    for (int64_t i = 0; i < n; i++)
        args[i] = token_lit(b, words[2 + i]);
    int32_t head, inv;
    if (op == OP_AND) {
        head = out ^ 1;
        inv = 0;
    } else {
        head = out;
        inv = 1;
    }
    for (int64_t i = 0; i < n; i++)
        put_bin(b, head, args[i] ^ inv);
    put(b, (int32_t)n + 1);
    put(b, head ^ 1);
    for (int64_t i = 0; i < n; i++)
        put(b, args[i] ^ inv ^ 1);
}

/* The clause asserting a require's root token (under its guard). */
static void run_root(blaster *b, int64_t root, int64_t guard)
{
    if (guard < 0) {
        if (root == TOK_FALSE) {
            put(b, 0);
        } else if (root != TOK_TRUE) {
            put_unit(b, token_lit(b, root));
        }
        return;
    }
    int32_t g = token_lit(b, guard) ^ 1;
    if (root == TOK_FALSE)
        put_unit(b, g);
    else if (root != TOK_TRUE)
        put_bin(b, g, token_lit(b, root));
}

/* Number new variables after the engine's last one, unless a record
 * or a variable waits for the engine (BlastFront.rebase). */
static void run_rebase(blaster *b, int64_t nvars)
{
    int64_t *st = b->st;
    if (st[S_BUF_BASE] + st[S_OUT_N] == 0 && st[S_NEXT_VAR] <= nvars)
        st[S_NEXT_VAR] = st[S_HEAD] = nvars;
}

/* Run the program from S_PC; DONE, NEED_ROOM (S_PC at the operation
 * that did not fit), TOO_WIDE or BAD_PROGRAM. */
int blast_run(const int64_t *addr, int64_t *st, const int64_t *prog,
              int64_t nprog)
{
    blaster b;
    bl_open(&b, addr, st);
    operand o[3];
    cost k;
    int64_t pos = st[S_PC];
    while (pos < nprog) {
        int64_t next = parse_op(&b, prog, pos, nprog, o, &k);
        if (next == -2)
            return TOO_WIDE;
        if (next < 0)
            return BAD_PROGRAM;
        if (st[S_NEXT_VAR] + k.vars > MAX_VARS)
            return TOO_WIDE;
        if (!has_room(&b, &k))
            return NEED_ROOM;
        int64_t op = prog[pos];
        if (op <= OP_MUL)
            run_arith(&b, op, o);
        else if (op <= OP_LE)
            run_cmp(&b, op, prog[pos + 1], o);
        else if (op <= OP_OR)
            run_bool(&b, op, prog + pos + 1);
        else if (op == OP_VEC)
            vector(&b, &o[0], b.scratch);
        else if (op == OP_ROOT)
            run_root(&b, prog[pos + 1], prog[pos + 2]);
        else
            run_rebase(&b, prog[pos + 1]);
        pos = next;
        st[S_PC] = pos;
    }
    return DONE;
}
