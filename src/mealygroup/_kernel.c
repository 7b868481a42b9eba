/* Compiled twins of two parts of mealygroup.analysis, for machines of any
 * shape.  Built on first use and loaded with ctypes by _kernel.py; the
 * Python code stays the reference they are tested against.
 *
 * mg_scan is the survey scan: _scan_exact with the closure statistics of
 * _depth_count.  A section word of length n over k states is packed into a
 * uint64, b bits per position (b = max(1, bit length of k - 1)), position i
 * at bit i*b; the caller guarantees n*b <= 64.  The canonical DFS visits the
 * allowed states in the caller's order and replaces a witness only on a
 * strictly better value, so words examined and witnesses equal those of the
 * Python scan.
 *
 * mg_closure is the closure record of one word that the queries read (the
 * Python walk in _closure_engine is its twin), and mg_threshold the
 * eventual-period loop of fixing_threshold over that record.  Section words
 * there take one byte per position (k <= 256), so words of any length fit.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN 64

/* Open-addressing set of packed words.  A slot is occupied iff its stamp
 * equals gen, so emptying the set between words costs one increment. */
typedef struct {
    uint64_t *keys;
    uint32_t *stamp;
    size_t cap, used;
    uint32_t gen;
} Set;

typedef struct {
    int k, m, b, n, na, ns, include_root;
    const int32_t *nxt, *emit, *allowed, *sigmas;
    char *idle;      /* per state: a do-nothing state (self-loops, x -> x) */
    int32_t *letter; /* per input letter, the letter reaching the next position */
    uint64_t *child; /* per input letter, the section being built */
    int32_t *active; /* per DFS level, indices of the symmetries still tying */
    int32_t word[MAXN];
    uint64_t *queue;
    size_t qcap;
    Set seen;
    uint64_t examined;
    int64_t best_d, best_t;
    int32_t *witness; /* the caller's: depth witness, then count witness */
} Scan;

static uint64_t mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

static int set_init(Set *s, size_t cap)
{
    s->keys = malloc(cap * sizeof *s->keys);
    s->stamp = calloc(cap, sizeof *s->stamp);
    s->cap = cap;
    s->used = 0;
    s->gen = 0;
    return s->keys && s->stamp ? 0 : -1;
}

static void set_clear(Set *s)
{
    s->used = 0;
    if (++s->gen == 0) {
        memset(s->stamp, 0, s->cap * sizeof *s->stamp);
        s->gen = 1;
    }
}

static int set_grow(Set *s)
{
    size_t cap = s->cap * 2;
    uint64_t *keys = malloc(cap * sizeof *keys);
    uint32_t *stamp = calloc(cap, sizeof *stamp);
    if (!keys || !stamp) {
        free(keys);
        free(stamp);
        return -1;
    }
    for (size_t i = 0; i < s->cap; i++) {
        if (s->stamp[i] != s->gen)
            continue;
        size_t j = mix(s->keys[i]) & (cap - 1);
        while (stamp[j])
            j = (j + 1) & (cap - 1);
        keys[j] = s->keys[i];
        stamp[j] = 1;
    }
    free(s->keys);
    free(s->stamp);
    s->keys = keys;
    s->stamp = stamp;
    s->cap = cap;
    s->gen = 1;
    return 0;
}

/* 1 when key is new, 0 when already present, -1 when out of memory. */
static int set_add(Set *s, uint64_t key)
{
    if (2 * (s->used + 1) > s->cap && set_grow(s))
        return -1;
    size_t mask = s->cap - 1, j = mix(key) & mask;
    while (s->stamp[j] == s->gen) {
        if (s->keys[j] == key)
            return 0;
        j = (j + 1) & mask;
    }
    s->keys[j] = key;
    s->stamp[j] = s->gen;
    s->used++;
    return 1;
}

static int push(Scan *sc, size_t *len, uint64_t v)
{
    if (*len == sc->qcap) {
        uint64_t *q = realloc(sc->queue, 2 * sc->qcap * sizeof *q);
        if (!q)
            return -1;
        sc->queue = q;
        sc->qcap *= 2;
    }
    sc->queue[(*len)++] = v;
    return 0;
}

/* Section BFS of one packed word: depth and section count as in
 * _depth_count, level by level, the root counted unless include_root is off
 * and the word never recurs. */
static int closure(Scan *sc, uint64_t root, int64_t *depth, int64_t *count)
{
    const int n = sc->n, m = sc->m, b = sc->b;
    const uint64_t low = (1ULL << b) - 1;
    int32_t st[MAXN], shift[MAXN];
    size_t len = 0, start = 0, end;
    int64_t level = 0;
    int recur = 0;

    *depth = 0;
    set_clear(&sc->seen);
    if (set_add(&sc->seen, root) < 0 || push(sc, &len, root))
        return -1;
    end = len;
    while (start < end) {
        level++;
        for (size_t q = start; q < end; q++) {
            uint64_t p = sc->queue[q], idle = 0;
            int live = 0;
            /* A do-nothing state passes every letter on and stays put, so
             * only the other positions are stepped. */
            for (int i = 0; i < n; i++) {
                int32_t s = (int32_t)(p >> (i * b) & low);
                if (sc->idle[s]) {
                    idle |= (uint64_t)s << (i * b);
                } else {
                    st[live] = s;
                    shift[live++] = i * b;
                }
            }
            /* All m letters step through the positions together: their
             * chains of dependent table loads then overlap. */
            for (int x = 0; x < m; x++) {
                sc->letter[x] = x;
                sc->child[x] = idle;
            }
            for (int j = live - 1; j >= 0; j--) {
                const int32_t *nrow = sc->nxt + st[j] * m, *erow = sc->emit + st[j] * m;
                for (int x = 0; x < m; x++) {
                    int c = sc->letter[x];
                    sc->child[x] |= (uint64_t)nrow[c] << shift[j];
                    sc->letter[x] = erow[c];
                }
            }
            for (int x = 0; x < m; x++) {
                uint64_t child = sc->child[x];
                int r = set_add(&sc->seen, child);
                if (r < 0)
                    return -1;
                if (r == 0) {
                    if (child == root)
                        recur = 1;
                } else if (push(sc, &len, child)) {
                    return -1;
                }
            }
        }
        if (len == end)
            break;
        *depth = level;
        start = end;
        end = len;
    }
    *count = (int64_t)sc->seen.used - (sc->include_root || recur ? 0 : 1);
    return 0;
}

/* Canonical DFS from `depth`, with the _extend_active rule: a symmetry
 * mapping the next state lower prunes it, one mapping it to itself keeps
 * tying. */
static int rec(Scan *sc, int depth, uint64_t packed, const int32_t *active, int nact)
{
    const int n = sc->n;
    if (depth == n) {
        int64_t d, t;
        if (closure(sc, packed, &d, &t))
            return -1;
        sc->examined++;
        if (d > sc->best_d) {
            sc->best_d = d;
            memcpy(sc->witness, sc->word, n * sizeof *sc->word);
        }
        if (t > sc->best_t) {
            sc->best_t = t;
            memcpy(sc->witness + n, sc->word, n * sizeof *sc->word);
        }
        return 0;
    }
    int32_t *sub = sc->active + (size_t)(depth + 1) * sc->ns;
    for (int a = 0; a < sc->na; a++) {
        int s = sc->allowed[a], keep = 0, canonical = 1;
        for (int j = 0; j < nact; j++) {
            int c = sc->sigmas[(size_t)active[j] * sc->k + s];
            if (c < s) {
                canonical = 0;
                break;
            }
            if (c == s)
                sub[keep++] = active[j];
        }
        if (!canonical)
            continue;
        sc->word[depth] = s;
        if (rec(sc, depth + 1, packed | (uint64_t)s << (depth * sc->b), sub, keep))
            return -1;
    }
    return 0;
}

/* Scan every canonical word of length n extending prefix[0..np), with the
 * ns symmetries in sigmas (k entries each) still tying on the prefix.
 * Writes words examined, best[0] = best depth, best[1] = best count, and
 * their witnesses into witness[0..n) and witness[n..2n).  Returns 0, or -1
 * when memory runs out (outputs are then meaningless). */
int mg_scan(int k, int m, int b, const int32_t *nxt, const int32_t *emit,
            int na, const int32_t *allowed, int include_root,
            int n, int np, const int32_t *prefix, int ns, const int32_t *sigmas,
            uint64_t *examined, int64_t *best, int32_t *witness)
{
    Scan sc = {
        .k = k, .m = m, .b = b, .n = n, .na = na, .ns = ns,
        .include_root = include_root,
        .nxt = nxt, .emit = emit, .allowed = allowed, .sigmas = sigmas,
        .best_d = -1, .best_t = -1, .witness = witness,
    };
    uint64_t packed = 0;
    int rc = -1;

    sc.idle = malloc(k);
    if (sc.idle)
        for (int s = 0; s < k; s++) {
            sc.idle[s] = 1;
            for (int c = 0; c < m; c++)
                if (nxt[s * m + c] != s || emit[s * m + c] != c)
                    sc.idle[s] = 0;
        }
    sc.letter = malloc(m * sizeof *sc.letter);
    sc.child = malloc(m * sizeof *sc.child);
    sc.active = malloc((size_t)(n + 1) * (ns ? ns : 1) * sizeof *sc.active);
    sc.qcap = 256;
    sc.queue = malloc(sc.qcap * sizeof *sc.queue);
    if (set_init(&sc.seen, 1024) || !sc.idle || !sc.letter || !sc.child || !sc.active
        || !sc.queue)
        goto done;
    for (int j = 0; j < ns; j++)
        sc.active[(size_t)np * ns + j] = j;
    for (int i = 0; i < np; i++) {
        sc.word[i] = prefix[i];
        packed |= (uint64_t)prefix[i] << (i * b);
    }
    rc = rec(&sc, np, packed, sc.active + (size_t)np * ns, ns);
    *examined = sc.examined;
    best[0] = sc.best_d;
    best[1] = sc.best_t;
done:
    free(sc.idle);
    free(sc.letter);
    free(sc.child);
    free(sc.active);
    free(sc.queue);
    free(sc.seen.keys);
    free(sc.seen.stamp);
    return rc;
}

/* ---------------------------------------------------------------------------
 * The closure record of one word. */

/* Filled in by mg_closure and freed by mg_closure_free.  Node 0 is the word;
 * nodes come in the order the breadth-first walk first reaches them. */
typedef struct {
    int64_t count;     /* nodes */
    int64_t levels;    /* level L holds nodes starts[L] .. starts[L+1] - 1 */
    uint8_t *words;    /* count * n: the states of node i at [i*n, i*n + n) */
    int64_t *starts;   /* levels + 1 */
    int32_t *children; /* count * m: node i's section at letter x at [i*m + x] */
    int32_t *images;   /* count * m: the 0-based image of letter x under node i */
    uint64_t *fixed;   /* count: the letters every state of node i fixes */
} Closure;

typedef struct {
    int n, m;
    Closure *c;
    int64_t cap;       /* nodes the arrays of c have room for */
    int64_t scap;      /* entries starts has room for */
    const uint64_t *fix;
    uint64_t all;      /* every letter */
    uint64_t *hash;    /* per node */
    int32_t *slot;     /* open addressing: node index + 1, 0 when empty */
    size_t tcap;
} Walk;

static int grow(void *p, size_t size)
{
    void *q = realloc(*(void **)p, size ? size : 1);
    if (!q)
        return -1;
    *(void **)p = q;
    return 0;
}

/* A hash of n bytes; the tail is read zero-padded, which is unambiguous
 * because every key of one table has the same length. */
static uint64_t hash_bytes(const uint8_t *p, size_t n)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL, v;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        memcpy(&v, p + i, 8);
        h = mix(h ^ v) * 0xc4ceb9fe1a85ec53ULL;
    }
    v = 0;
    memcpy(&v, p + i, n - i);
    return mix(h ^ v);
}

static int table_grow(int32_t **slot, size_t *tcap, const uint64_t *hash, int64_t used)
{
    size_t cap = *tcap ? 2 * *tcap : 64;
    int32_t *t = calloc(cap, sizeof *t);
    if (!t)
        return -1;
    for (int64_t i = 0; i < used; i++) {
        size_t j = hash[i] & (cap - 1);
        while (t[j])
            j = (j + 1) & (cap - 1);
        t[j] = (int32_t)(i + 1);
    }
    free(*slot);
    *slot = t;
    *tcap = cap;
    return 0;
}

/* Index of the node with states w, added when new; -1 when out of memory. */
static int64_t intern(Walk *b, const uint8_t *w)
{
    Closure *c = b->c;
    const size_t n = (size_t)b->n;
    uint64_t h = hash_bytes(w, n);
    size_t j = h & (b->tcap - 1);
    for (; b->slot[j]; j = (j + 1) & (b->tcap - 1)) {
        int64_t i = b->slot[j] - 1;
        if (b->hash[i] == h && memcmp(c->words + i * n, w, n) == 0)
            return i;
    }
    int64_t i = c->count;
    if (i == INT32_MAX - 1)
        return -1;
    if (i == b->cap) {
        int64_t cap = 2 * b->cap;
        if (grow(&c->words, cap * n) || grow(&c->children, cap * b->m * sizeof *c->children)
            || grow(&c->images, cap * b->m * sizeof *c->images)
            || grow(&c->fixed, cap * sizeof *c->fixed) || grow(&b->hash, cap * sizeof *b->hash))
            return -1;
        b->cap = cap;
    }
    if (2 * (size_t)(i + 1) > b->tcap) {
        if (table_grow(&b->slot, &b->tcap, b->hash, i))
            return -1;
        for (j = h & (b->tcap - 1); b->slot[j]; j = (j + 1) & (b->tcap - 1))
            ;
    }
    uint64_t fx = b->all;
    for (size_t p = 0; p < n; p++)
        fx &= b->fix[w[p]];
    memcpy(c->words + i * n, w, n);
    c->fixed[i] = fx;
    b->hash[i] = h;
    b->slot[j] = (int32_t)(i + 1);
    c->count = i + 1;
    return i;
}

void mg_closure_free(Closure *c)
{
    free(c->words);
    free(c->starts);
    free(c->children);
    free(c->images);
    free(c->fixed);
    memset(c, 0, sizeof *c);
}

/* Breadth-first closure of word[0..n) over a machine of k <= 256 states
 * and m <= 64 letters, into *c.  Returns 0, or -1 when memory runs out (c
 * is then freed). */
int mg_closure(int k, int m, const int32_t *nxt, const int32_t *emit, int n,
               const uint8_t *word, Closure *c)
{
    Walk b = {.n = n, .m = m, .c = c, .cap = 64, .scap = 16};
    uint64_t *fix = malloc(k * sizeof *fix);
    int32_t *letter = malloc(m * sizeof *letter);
    uint8_t *kid = malloc((size_t)m * n + 1), *idle = malloc(k);
    int rc = -1;

    memset(c, 0, sizeof *c);
    b.fix = fix;
    b.all = m == 64 ? ~0ULL : (1ULL << m) - 1;
    if (!fix || !letter || !kid || !idle || grow(&c->words, b.cap * n)
        || grow(&c->children, b.cap * m * sizeof *c->children)
        || grow(&c->images, b.cap * m * sizeof *c->images)
        || grow(&c->fixed, b.cap * sizeof *c->fixed) || grow(&b.hash, b.cap * sizeof *b.hash)
        || grow(&c->starts, b.scap * sizeof *c->starts)
        || table_grow(&b.slot, &b.tcap, b.hash, 0))
        goto done;
    for (int s = 0; s < k; s++) {
        fix[s] = 0;
        idle[s] = 1;
        for (int x = 0; x < m; x++) {
            if (emit[s * m + x] == x)
                fix[s] |= 1ULL << x;
            if (nxt[s * m + x] != s || emit[s * m + x] != x)
                idle[s] = 0;
        }
    }
    if (intern(&b, word) < 0)
        goto done;
    c->starts[0] = 0;
    for (int64_t start = 0, end = 1; start < end; start = end, end = c->count) {
        for (int64_t q = start; q < end; q++) {
            /* Read node q whole before interning: that may move c->words.
             * All m letters step through the positions together, so that
             * their chains of dependent table loads overlap. */
            const uint8_t *p = c->words + q * n;
            for (int x = 0; x < m; x++) {
                letter[x] = x;
                memcpy(kid + (size_t)x * n, p, n);
            }
            /* A do-nothing state passes every letter on and stays put, so
             * only the other positions are stepped. */
            for (int i = n - 1; i >= 0; i--) {
                if (idle[p[i]])
                    continue;
                const int32_t *nrow = nxt + p[i] * m, *erow = emit + p[i] * m;
                for (int x = 0; x < m; x++) {
                    int l = letter[x];
                    kid[x * n + i] = (uint8_t)nrow[l];
                    letter[x] = erow[l];
                }
            }
            for (int x = 0; x < m; x++) {
                int64_t child = intern(&b, kid + (size_t)x * n);
                if (child < 0)
                    goto done;
                c->children[q * m + x] = (int32_t)child;
                c->images[q * m + x] = letter[x];
            }
        }
        if (c->levels + 2 > b.scap) {
            b.scap *= 2;
            if (grow(&c->starts, b.scap * sizeof *c->starts))
                goto done;
        }
        c->starts[++c->levels] = end;
    }
    rc = 0;
done:
    if (rc)
        mg_closure_free(c);
    free(fix);
    free(letter);
    free(kid);
    free(idle);
    free(b.hash);
    free(b.slot);
    return rc;
}

/* The eventual-period loop of fixing_threshold over a closure record of
 * `count` nodes.  The sets of sections at input lengths 0, 1, ... start at
 * {node 0} and step through `children`; being subsets of a finite set, they
 * repeat from some length on.  Returns one past the last length whose set
 * holds a node fixing no letter, -1 when such a set lies on the repeating
 * part (no threshold), or -2 when memory runs out.  Sets are bitsets over
 * node indices. */
int64_t mg_threshold(int64_t count, int m, const int32_t *children, const uint64_t *fixed)
{
    const size_t words = (size_t)(count + 63) / 64, bytes = words * sizeof(uint64_t);
    uint64_t *bad = calloc(words, sizeof *bad), *next = calloc(words, sizeof *next);
    uint64_t *hist = NULL, *hash = NULL;
    uint8_t *hist_bad = NULL;
    int32_t *slot = NULL;
    size_t tcap = 0, cap = 0, len = 0;
    int64_t last_bad = -1, result = -2;

    if (!bad || !next || table_grow(&slot, &tcap, NULL, 0))
        goto done;
    for (int64_t i = 0; i < count; i++)
        if (!fixed[i])
            bad[i / 64] |= 1ULL << (i % 64);
    next[0] = 1;
    for (;;) {
        uint64_t h = hash_bytes((const uint8_t *)next, bytes);
        size_t j = h & (tcap - 1);
        for (; slot[j]; j = (j + 1) & (tcap - 1)) {
            size_t t = (size_t)slot[j] - 1;
            if (hash[t] == h && memcmp(hist + t * words, next, bytes) == 0) {
                result = last_bad + 1;
                for (; t < len; t++)
                    if (hist_bad[t])
                        result = -1;
                goto done;
            }
        }
        if (len == cap) {
            cap = cap ? 2 * cap : 16;
            if (len + 1 >= INT32_MAX || grow(&hist, cap * bytes) || grow(&hash, cap * sizeof *hash)
                || grow(&hist_bad, cap))
                goto done;
        }
        if (2 * (len + 1) > tcap) {
            if (table_grow(&slot, &tcap, hash, (int64_t)len))
                goto done;
            for (j = h & (tcap - 1); slot[j]; j = (j + 1) & (tcap - 1))
                ;
        }
        uint64_t *cur = hist + len * words;
        memcpy(cur, next, bytes);
        hash[len] = h;
        hist_bad[len] = 0;
        for (size_t w = 0; w < words; w++)
            if (cur[w] & bad[w])
                hist_bad[len] = 1;
        if (hist_bad[len])
            last_bad = (int64_t)len;
        slot[j] = (int32_t)(++len);
        memset(next, 0, bytes);
        for (size_t w = 0; w < words; w++)
            for (uint64_t bits = cur[w]; bits; bits &= bits - 1) {
                const int32_t *row = children + (int64_t)(w * 64 + __builtin_ctzll(bits)) * m;
                for (int x = 0; x < m; x++)
                    next[row[x] / 64] |= 1ULL << (row[x] % 64);
            }
    }
done:
    free(bad);
    free(next);
    free(hist);
    free(hash);
    free(hist_bad);
    free(slot);
    return result;
}
