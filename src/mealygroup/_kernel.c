/* Compiled twin of the survey scan in mealygroup.analysis: _scan_exact with
 * the closure statistics of _make_stats, for machines of any shape.  Built
 * on first use and loaded with ctypes by _kernel.py; the Python scan stays
 * the reference it is tested against.
 *
 * A section word of length n over k states is packed into a uint64, b bits
 * per position (b = max(1, bit length of k - 1)), position i at bit i*b; the
 * caller guarantees n*b <= 64.  The canonical DFS visits the allowed states
 * in the caller's order and replaces a witness only on a strictly better
 * value, so words examined and witnesses equal those of the Python scan.
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
 * _make_stats, level by level, the root counted unless include_root is off
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
