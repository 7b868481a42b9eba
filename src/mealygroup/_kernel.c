/* Compiled twins of two parts of mealygroup.analysis, for machines of any
 * shape.  Built on first use and loaded with ctypes by _kernel.py; the
 * Python code stays the reference they are tested against.
 *
 * One walk builds every closure (walk).  The last state of u v reads a
 * letter first, so (u v)|x = u|v(x) v|x, and the closure of u v is the
 * part of closure(u) x closure(v) reachable from the pair of roots.  With
 * y = im_v[b][x], the pair (a, b) has at letter x the child
 * (ch_u[a][y], ch_v[b][x]) and the image im_u[a][y]; it fixes the letters
 * both a and b fix, and its section word is a's followed by b's.  Distinct
 * pairs are distinct section words, so a breadth-first walk over pairs has
 * the levels, depth and section count (the word included) of the walk
 * over section words, and numbers the nodes as _walk_record does.  One
 * state's closure is the machine, rooted at that state.
 *
 * mg_scan is the survey scan, the twin of _scan_lengths: one canonical DFS
 * that records the depth and count of every word up to the longest length,
 * walking each node's closure from its parent's and the machine rooted at
 * its last state.  Depth and count need no images of letters, so the DFS
 * keeps only the child table (the closure automaton) of each node's
 * closure, and a leaf keeps none.  Each node counts toward its own length,
 * so one DFS to length n gives every shorter length's results too.  The
 * DFS visits the allowed states in the caller's order and replaces a
 * witness only on a strictly better value, so closures computed and
 * witnesses equal those of the Python scan.  The symmetries (tying), the
 * commutation rule (forbid) and, at the last length, the reversal test
 * (reversal_smaller) prune words; mirror children are folded, not scanned,
 * and twin children, which match an earlier sibling, are skipped (rec);
 * worker threads claim the subtrees at the split depth (descend), and one
 * of them first counts those subtrees (the census, mg_scan).
 *
 * mg_closure is the closure record that the queries read (_walk_record is
 * its twin).  It halves the word, builds the records of the halves the
 * same way and walks their pairs: log2 n levels of walks, none of which
 * steps a section word.  It writes section words only when asked to.
 * With the stop flag it answers is_identity, and returns 1 once a section
 * moves a letter, trying those at inputs of at most two letters before
 * any walk.  mg_threshold is fixing_threshold in one call: the record,
 * then one longest-path pass over it (longest_path, the twin of
 * _path_threshold).  mg_run is apply and section_word (act and section)
 * in one call: the stepping loop of _run_state, the rightmost state
 * first, which writes the image and each position's end state.  All three
 * run on a machine's handle (Query, from mg_query_new), built once per
 * machine: a copy of the tables, the fixed letters of each state, which
 * states do nothing (as the caller's Automaton._trivials says), the empty
 * word's record, whether the machine is invertible, and a workspace (the
 * walk's Pairs, the halves' records, the word's record, longest_path's
 * buffer, the stop probe's and mg_run's) that each call reuses.  A call
 * that leaves the workspace past KEEP bytes frees it, so one long word
 * does not keep its memory; the word's record then goes to the caller
 * (mg_run, whose buffer is read after it returns, frees it at the next
 * call instead).  A handle serves one call at a time: the caller
 * holds a lock around each call and its copy of the output.
 *
 * A walk stops with -2 once a closure passes `budget` sections, and returns
 * -1 when memory runs out.  On an invertible machine a word has at least
 * as many sections as each half: v permutes the inputs of each length, so
 * both projections of the pairs reached are onto.  Where that does not
 * settle the answer (with the stop flag, or on a machine that is not
 * invertible), a half past the budget makes mg_closure return 2, and the
 * caller walks the word itself.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN 64

static int grow(void *p, size_t size)
{
    void *q = realloc(*(void **)p, size ? size : 1);
    if (!q)
        return -1;
    *(void **)p = q;
    return 0;
}

static uint64_t mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
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

/* The closure of one word: node i's section at letter x is children[i*m+x].
 * The scan's hold only children; mg_closure's fill every field (words only
 * when asked for), numbering the nodes as _walk_record does. */
typedef struct {
    int64_t count;     /* nodes */
    int64_t levels;    /* level L holds nodes starts[L] .. starts[L+1] - 1 */
    uint8_t *words;    /* count * n: the states of node i at [i*n, i*n + n) */
    int64_t n;         /* states per section word */
    int64_t *starts;   /* levels + 1 */
    int32_t *children; /* count * m */
    int32_t *images;   /* count * m: the 0-based image of letter x under node i */
    uint64_t *fixed;   /* count: the letters every state of node i fixes */
    int64_t cap;       /* nodes the arrays have room for */
} Closure;

/* What walk keeps from one walk to the next. */
typedef struct {
    int m, nodes;      /* letters; whether mg_closure's walks write section words */
    int64_t budget;
    int32_t *queue;    /* node i is the pair (queue[2i], queue[2i+1]) */
    int64_t qcap;      /* nodes queue has room for */
    uint32_t *stamp;   /* per pair code a*|V| + b: seen in this walk iff == gen */
    int32_t *index;    /* per pair code: its node index */
    size_t vcap;
    uint32_t gen;
    uint64_t *hash;    /* per node, when codes are hashed: mix(code) */
    int32_t *slot;     /* open addressing: node index + 1, 0 when empty */
    size_t tcap;
} Pairs;

static void pairs_free(Pairs *pw)
{
    free(pw->queue);
    free(pw->stamp);
    free(pw->index);
    free(pw->hash);
    free(pw->slot);
}

/* Room for `want` nodes in the queue and, when out is not NULL, in out's
 * children, and in its other arrays when full (words when asked for). */
static int room(Pairs *pw, Closure *out, int64_t want, int full)
{
    if (want > pw->qcap) {
        if (grow(&pw->queue, 2 * want * sizeof *pw->queue)
            || (full && grow(&pw->hash, want * sizeof *pw->hash)))
            return -1;
        pw->qcap = want;
    }
    if (out && want > out->cap) {
        if (grow(&out->children, want * pw->m * sizeof *out->children)
            || (full && (grow(&out->images, want * pw->m * sizeof *out->images)
                         || grow(&out->fixed, want * sizeof *out->fixed)
                         || grow(&out->starts, (want + 1) * sizeof *out->starts))))
            return -1;
        out->cap = want;
    }
    return full && pw->nodes ? grow(&out->words, (size_t)out->cap * out->n) : 0;
}

/* The node of the pair (a, b), code a * v->count + b, in the walk of u v,
 * added as node *len when new; -1 when memory runs out, -2 past the
 * budget.  Codes are looked up densely, or hashed in a table at most half full. */
static inline __attribute__((always_inline)) int64_t
node(Pairs *pw, const Closure *u, int32_t a, const Closure *v, int32_t b, const int full,
     const int dense, uint32_t gen, Closure *out, int64_t *len)
{
    const size_t code = (size_t)a * v->count + b;
    const uint64_t h = dense ? 0 : mix(code);
    while (!dense && 2 * (size_t)(*len + 1) > pw->tcap)
        if (table_grow(&pw->slot, &pw->tcap, pw->hash, *len))
            return -1;
    size_t j = h & (pw->tcap - 1);
    if (dense && pw->stamp[code] == gen)
        return out ? pw->index[code] : 0;
    for (; !dense && pw->slot[j]; j = (j + 1) & (pw->tcap - 1))
        if (pw->queue[2 * (pw->slot[j] - 1)] == a && pw->queue[2 * (pw->slot[j] - 1) + 1] == b)
            return pw->slot[j] - 1;
    const int64_t i = *len;
    if (i == pw->budget)
        return -2;
    if (full && i == out->cap && room(pw, out, 2 * i, full))
        return -1;
    if (dense) {
        pw->stamp[code] = gen;
        if (out)
            pw->index[code] = (int32_t)i;
    } else {
        pw->slot[j] = (int32_t)(i + 1);
        pw->hash[i] = h;
    }
    pw->queue[2 * i] = a;
    pw->queue[2 * i + 1] = b;
    if (full)
        out->fixed[i] = u->fixed[a] & v->fixed[b];
    if (full && pw->nodes) {
        memcpy(out->words + (size_t)i * out->n, u->words + (size_t)a * u->n, u->n);
        memcpy(out->words + (size_t)i * out->n + u->n, v->words + (size_t)b * v->n, v->n);
    }
    return (*len)++;
}

/* Walk the closure of u v from the pair of roots (ru, rv): its depth and
 * section count, and, when out is not NULL, the closure into *out, only the
 * children unless full.  With stop, returns 1 once a node moves a letter.
 * Returns 0, -1 when memory runs out, or -2 once the closure passes the
 * budget.  Inlined with full constant: the scan's copy has only the dense
 * stamp table, sizes its arrays once and stores no images, fixed letters
 * or words; mg_closure's hashes codes past 2^16 and grows its arrays. */
static inline __attribute__((always_inline)) int
walk(Pairs *pw, const Closure *u, int32_t ru, const Closure *v, int32_t rv, const int full,
     int stop, Closure *out, int64_t *depth, int64_t *count)
{
    const int m = pw->m;
    const size_t codes = (size_t)u->count * v->count;
    const int dense = !full || codes <= 1 << 16;
    /* A walk has at most one node per pair code, and stops at the budget. */
    const int64_t most = (int64_t)codes < pw->budget ? (int64_t)codes : pw->budget;
    int64_t len = 0, start = 0, end = 1, levels = 0, i;

    if (dense && codes > pw->vcap) {
        free(pw->stamp);
        pw->stamp = calloc(codes, sizeof *pw->stamp);
        if (!pw->stamp || grow(&pw->index, codes * sizeof *pw->index))
            return -1;
        pw->vcap = codes;
    }
    if (full)
        out->n = u->n + v->n;
    if (room(pw, out, full ? 2 * (u->count + v->count) : most, full))
        return -1;
    if (dense && ++pw->gen == 0) {
        memset(pw->stamp, 0, pw->vcap * sizeof *pw->stamp);
        pw->gen = 1;
    }
    if (!dense)
        pw->tcap = 0; /* node makes a new hash table */
    const uint32_t gen = pw->gen;
    if ((i = node(pw, u, ru, v, rv, full, dense, gen, out, &len)) < 0)
        return i == -1 ? -1 : -2;
    for (;; levels++, start = end, end = len) {
        if (full)
            out->starts[levels + 1] = end;
        for (int64_t q = start; q < end; q++) {
            const size_t ra = (size_t)pw->queue[2 * q] * m, rb = (size_t)pw->queue[2 * q + 1] * m;
            const int32_t *cu = u->children + ra, *iu = full ? u->images + ra : NULL;
            const int32_t *cv = v->children + rb, *iv = v->images + rb;
            int moved = 0;
            for (int x = 0; x < m; x++) {
                const int y = iv[x];
                if ((i = node(pw, u, cu[y], v, cv[x], full, dense, gen, out, &len)) < 0)
                    return i == -1 ? -1 : -2;
                if (out)
                    out->children[q * m + x] = (int32_t)i;
                if (full) {
                    out->images[q * m + x] = iu[y];
                    moved |= iu[y] != x;
                }
            }
            if (full && stop && moved)
                return 1;
        }
        if (len == end)
            break;
    }
    if (out)
        out->count = len;
    if (full) {
        out->starts[0] = 0;
        out->levels = levels + 1;
    }
    *depth = levels;
    *count = len;
    return 0;
}

typedef struct {
    int k, m, n, na, ng;
    const int32_t *allowed, *group;
    const uint64_t *comm; /* per state, the states that commute with it, or NULL */
    int32_t *active;   /* per DFS level, indices into group of the symmetries still tying */
    /* The reversal test, when maps is not NULL: maps holds the maps
     * sigma o iota (the identity first, then each of group), k entries each;
     * per state l, lo[l] is the least t(l) over those maps t, and
     * tie[tie_at[l] .. tie_at[l+1]) lists the maps that give it. */
    int32_t *maps, *lo, *tie, *tie_at;
    int mirror;        /* whether mirror children are folded (see rec) */
    int split;         /* the depth at which subtrees are claimed (see descend) */
    int counts;        /* whether words of length <= split count toward examined */
    int census;        /* whether descend only numbers the nodes of depth split */
    int64_t ordinal;   /* the next node of depth split, numbered in DFS order */
    int64_t claim;     /* the ordinal this worker holds, or -1 */
    int64_t *shared;   /* the caller's: next ordinal to claim, subtrees done, stop flag,
                        * subtrees to scan */
    int32_t word[MAXN];
    /* Per DFS depth d and allowed state a, the child word[0..d) allowed[a]:
     * its closure automaton, its depth and count, and what rec does with it. */
    Closure *kid;
    int64_t *kv;
    uint8_t *kind;
    /* Per DFS depth, a scope's bests and witnesses, laid out as the caller's. */
    int64_t *scope_best;
    int32_t *scope_witness;
    Pairs pairs;
    Closure machine;   /* the machine's tables as the record of one state */
    uint64_t *examined; /* the caller's, per length */
    int64_t *best;     /* the caller's: best depth, then best count, per length */
    int32_t *witness;  /* the caller's: depth witness, then count witness, n each per length */
} Scan;

/* Count word[0..len), of closure depth d and count t, toward its length,
 * and keep d and t as that length's best when strictly better.  Every
 * worker records the words of length <= split, but only one counts them. */
static void record(Scan *sc, int len, int64_t d, int64_t t)
{
    const size_t i = (size_t)len - 1;
    int32_t *w = sc->witness + i * 2 * sc->n;
    sc->examined[i] += sc->counts || len > sc->split;
    if (d > sc->best[2 * i]) {
        sc->best[2 * i] = d;
        memcpy(w, sc->word, len * sizeof *sc->word);
    }
    if (t > sc->best[2 * i + 1]) {
        sc->best[2 * i + 1] = t;
        memcpy(w + sc->n, sc->word, len * sizeof *sc->word);
    }
}

/* Fill the maps of the reversal test from iota (see Scan). */
static int reversal_maps(Scan *sc, const int32_t *iota)
{
    const int k = sc->k, nt = sc->ng + 1;
    sc->maps = malloc((size_t)nt * k * sizeof *sc->maps);
    sc->tie = malloc((size_t)nt * k * sizeof *sc->tie);
    sc->lo = malloc(k * sizeof *sc->lo);
    sc->tie_at = malloc((k + 1) * sizeof *sc->tie_at);
    if (!sc->maps || !sc->tie || !sc->lo || !sc->tie_at)
        return -1;
    for (int j = 0; j < nt; j++)
        for (int s = 0; s < k; s++)
            sc->maps[(size_t)j * k + s] = j ? sc->group[(size_t)(j - 1) * k + iota[s]] : iota[s];
    int at = 0;
    for (int l = 0; l < k; l++) {
        int lo = sc->maps[l];
        for (int j = 1; j < nt; j++)
            if (sc->maps[(size_t)j * k + l] < lo)
                lo = sc->maps[(size_t)j * k + l];
        sc->lo[l] = lo;
        sc->tie_at[l] = at;
        for (int j = 0; j < nt; j++)
            if (sc->maps[(size_t)j * k + l] == lo)
                sc->tie[at++] = j;
    }
    sc->tie_at[k] = at;
    return 0;
}

/* Whether some map t of the reversal test makes t(reversed(word[0..n)))
 * lex-smaller than the word.  Its first letter is t(word[n-1]), so lo
 * settles most words at once, and only the maps that tie there read on. */
static int reversal_smaller(const Scan *sc)
{
    const int n = sc->n, last = sc->word[n - 1];
    const int32_t *w = sc->word;
    if (sc->lo[last] != w[0])
        return sc->lo[last] < w[0];
    for (int j = sc->tie_at[last]; j < sc->tie_at[last + 1]; j++) {
        const int32_t *t = sc->maps + (size_t)sc->tie[j] * sc->k;
        for (int i = 1; i < n; i++) {
            const int c = t[w[n - 1 - i]];
            if (c != w[i]) {
                if (c < w[i])
                    return 1;
                break;
            }
        }
    }
    return 0;
}

/* The forbidden set after appending s to a word whose set is f: the
 * states a that commute with s and are smaller than s or already
 * forbidden (the commutation rule of analysis._canonical_prefixes). */
static uint64_t forbid(const Scan *sc, uint64_t f, int s)
{
    return sc->comm ? sc->comm[s] & (f | ((1ULL << s) - 1)) : 0;
}

/* The symmetries among active[0..nact) that still tie once s is appended,
 * into sub, and their number; -1 when one maps s lower (the
 * _extend_active rule: the extension is not canonical). */
static int tying(const Scan *sc, const int32_t *active, int nact, int s, int32_t *sub)
{
    int keep = 0;
    for (int j = 0; j < nact; j++) {
        const int c = sc->group[(size_t)active[j] * sc->k + s];
        if (c < s)
            return -1;
        if (c == s)
            sub[keep++] = active[j];
    }
    return keep;
}

static int same_automaton(const Closure *a, const Closure *b, int m)
{
    return a->count == b->count
           && !memcmp(a->children, b->children, (size_t)a->count * m * sizeof *a->children);
}

/* Whether s and t leave the same symmetries among active[0..nact) tying:
 * each fixes both or neither. */
static int same_tying(const Scan *sc, const int32_t *active, int nact, int s, int t)
{
    for (int j = 0; j < nact; j++) {
        const int32_t *g = sc->group + (size_t)active[j] * sc->k;
        if ((g[s] == s) != (g[t] == t))
            return 0;
    }
    return 1;
}

/* Whether word[0..at) x word[at..len-1) is lex-smaller than u[0..len). */
static int inserted_less(const int32_t *word, int at, int x, const int32_t *u, int len)
{
    for (int i = 0; i < len; i++) {
        const int c = i < at ? word[i] : i == at ? x : word[i - 1];
        if (c != u[i])
            return c < u[i];
    }
    return 0;
}

/* What rec does with a child; the kinds from MIRROR on are not descended into. */
enum { SKIP, DESCEND, MIRROR, TWIN };

/* Fold the subtrees of the mirror children of word[0..depth), whose
 * words below it are all in the open scope: below a mirror c = v x the
 * words are c u for the words v u below v = word[0..depth), with v u's
 * depth and count, so the best of length L below c is the best of length
 * L-1 below v with x inserted at position depth.  Lengths go up, so the
 * words below v of length L-1 include those folded at L-1; a tie goes to
 * the lex-smaller word.  A worker may have no word of length L-1 below v,
 * when the subtrees that hold them are other workers'. */
static void fold(Scan *sc, int depth, const uint8_t *kind)
{
    const int n = sc->n;
    for (int len = depth + 2; len <= n; len++) {
        const size_t from = 2 * (size_t)(len - 2), to = 2 * (size_t)(len - 1);
        for (int v = 0; v < 2; v++) {
            const int64_t value = sc->best[from + v];
            const int32_t *base = sc->witness + (from + v) * n;
            int32_t *w = sc->witness + (to + v) * n;
            for (int a = 0; a < sc->na; a++) {
                const int x = sc->allowed[a];
                if (kind[a] != MIRROR || value < 0 || value < sc->best[to + v]
                    || (value == sc->best[to + v] && !inserted_less(base, depth, x, w, len)))
                    continue;
                sc->best[to + v] = value;
                memcpy(w, base, depth * sizeof *w);
                w[depth] = x;
                memcpy(w + depth + 1, base + depth, (len - 1 - depth) * sizeof *w);
            }
        }
    }
}

static int rec(Scan *sc, int depth, const Closure *p, const int32_t *active, int nact,
               uint64_t f);

/* rec below v = word[0..depth), except at the split depth, where only the
 * worker that claims v's ordinal from the shared counter goes on.  Every
 * worker numbers the nodes of that depth alike, in DFS order, and holds
 * one claim at a time: once past it, it reads the stop flag and claims the
 * next ordinal not yet taken.  The counter only grows, so each node is
 * claimed once, by a worker that has not yet passed it.  In the census,
 * every node of that depth is numbered and none is gone below, so the
 * ordinals then count the subtrees to scan.  Returns 1 once the stop flag
 * is set. */
static int descend(Scan *sc, int depth, const Closure *p, const int32_t *active, int nact,
                   uint64_t f)
{
    if (depth != sc->split)
        return rec(sc, depth, p, active, nact, f);
    const int64_t i = sc->ordinal++;
    if (sc->census)
        return 0;
    if (sc->claim < i) {
        if (__atomic_load_n(&sc->shared[2], __ATOMIC_RELAXED))
            return 1;
        sc->claim = __atomic_fetch_add(&sc->shared[0], 1, __ATOMIC_RELAXED);
    }
    if (sc->claim != i)
        return 0;
    const int rc = rec(sc, depth, p, active, nact, f);
    if (!rc)
        __atomic_fetch_add(&sc->shared[1], 1, __ATOMIC_RELAXED);
    return rc;
}

/* Canonical DFS below v = word[0..depth), whose closure automaton is p
 * and whose forbidden set is f, down to length n.  A state in f is pruned,
 * and so is one that breaks a tie (see tying).  Every word it reaches is
 * recorded, except a word of length n that the reversal test passes over.
 * Children come first: each one's automaton is built and the children
 * recorded before any is descended into.  A child c = v s shorter than n
 * is a mirror when its automaton, its tying symmetries (every one that
 * ties on v fixes s) and its forbidden set are v's: the walk reads nothing
 * else, so the words below c are v s u for the words v u below v, with
 * their depths and counts.  A child c = v t shorter than n - 1 is a twin
 * when an earlier child v s that is descended into has its depth and
 * count, its forbidden set, its tying symmetries (each one that ties on v
 * fixes both s and t or neither) and its automaton, compared in that
 * order: the words below c are v t u for the words v s u below v s, with
 * their depths and counts, and v s u is lex-smaller, so no best word of
 * any length is below c.  A mirror or a twin is recorded but not
 * descended into, so no node of the split depth below it is numbered
 * (descend).  A node with mirror children records the words below it in a
 * scope of its own, folds the mirrors' subtrees there (fold), and merges
 * the scope into the enclosing one on strictly better values only: its
 * words come later in lex order.
 * Twins are not looked for one level above the leaves, where one saves at
 * most one row of leaf walks and the compares would cost as much. */
static int rec(Scan *sc, int depth, const Closure *p, const int32_t *active, int nact, uint64_t f)
{
    int32_t *sub = sc->active + (size_t)(depth + 1) * sc->ng;
    const int na = sc->na;
    int64_t d, t;
    int rc, keep, mirrors = 0;
    if (depth + 1 == sc->n) {
        for (int a = 0; a < na; a++) {
            const int s = sc->allowed[a];
            if ((sc->comm && f >> s & 1) || tying(sc, active, nact, s, sub) < 0)
                continue;
            sc->word[depth] = s;
            if (sc->maps && reversal_smaller(sc))
                continue;
            if ((rc = walk(&sc->pairs, p, 0, &sc->machine, s, 0, 0, NULL, &d, &t)))
                return rc;
            record(sc, depth + 1, d, t);
        }
        return 0;
    }
    Closure *kid = sc->kid + (size_t)depth * na;
    int64_t *kv = sc->kv + 2 * (size_t)depth * na;
    uint8_t *kind = sc->kind + (size_t)depth * na;
    for (int a = 0; a < na; a++) {
        const int s = sc->allowed[a];
        kind[a] = SKIP;
        if ((sc->comm && f >> s & 1) || (keep = tying(sc, active, nact, s, sub)) < 0)
            continue;
        if ((rc = walk(&sc->pairs, p, 0, &sc->machine, s, 0, 0, &kid[a], &kv[2 * a],
                       &kv[2 * a + 1])))
            return rc;
        kind[a] = sc->mirror && keep == nact && forbid(sc, f, s) == f
                  && same_automaton(&kid[a], p, sc->m) ? MIRROR : DESCEND;
        mirrors += kind[a] == MIRROR;
    }
    if (sc->mirror && depth + 2 < sc->n)
        for (int a = 1; a < na; a++)
            for (int b = 0; kind[a] == DESCEND && b < a; b++)
                if (kind[b] == DESCEND && kv[2 * b] == kv[2 * a] && kv[2 * b + 1] == kv[2 * a + 1]
                    && forbid(sc, f, sc->allowed[b]) == forbid(sc, f, sc->allowed[a])
                    && same_tying(sc, active, nact, sc->allowed[b], sc->allowed[a])
                    && same_automaton(&kid[b], &kid[a], sc->m))
                    kind[a] = TWIN;
    int64_t *const best = sc->best;
    int32_t *const witness = sc->witness;
    if (mirrors) {
        sc->best = sc->scope_best + 2 * (size_t)depth * sc->n;
        sc->witness = sc->scope_witness + 2 * (size_t)depth * sc->n * sc->n;
        for (int i = depth; i < sc->n; i++)
            sc->best[2 * i] = sc->best[2 * i + 1] = -1;
    }
    for (int a = 0; a < na; a++)
        if (kind[a] != SKIP) {
            sc->word[depth] = sc->allowed[a];
            record(sc, depth + 1, kv[2 * a], kv[2 * a + 1]);
        }
    for (int a = 0; a < na; a++) {
        const int s = sc->allowed[a];
        if (kind[a] != DESCEND)
            continue;
        sc->word[depth] = s;
        keep = tying(sc, active, nact, s, sub);
        if ((rc = descend(sc, depth + 1, &kid[a], sub, keep, forbid(sc, f, s))))
            return rc;
    }
    if (!mirrors)
        return 0;
    fold(sc, depth, kind);
    for (size_t j = 2 * (size_t)depth; j < 2 * (size_t)sc->n; j++)
        if (sc->best[j] > best[j]) {
            best[j] = sc->best[j];
            memcpy(witness + j * sc->n, sc->witness + j * sc->n, (j / 2 + 1) * sizeof *witness);
        }
    sc->best = best;
    sc->witness = witness;
    return 0;
}

/* The survey scan to length n (n <= MAXN), run once by each of the
 * caller's worker threads: the whole canonical DFS from the empty word,
 * the subtrees at depth split (0 <= split < n) shared out by claims on the
 * counter shared[0] (see descend).  shared[1] counts the subtrees scanned.
 * The worker with counts set first runs the census, a DFS that numbers the
 * nodes of depth split without going below them (see descend), stores
 * their number, the subtrees to scan, in shared[3], and then scans from
 * cleared results.  Only that worker counts the words of length <= split
 * toward examined, so the workers' examined add up to the closures the
 * scan computed.  With comm (k <= 64 masks) not NULL, words pass the
 * commutation rule too; with iota (k entries) not NULL, words of length n
 * pass the reversal test; with mirror set, mirror children are folded (see
 * rec).  Results for length L go to index j = L - 1: closures computed in
 * examined[j], best depth in best[2j] (-1 when the worker reached no word
 * of length L), best count in best[2j+1], and their witnesses at
 * witness[2nj], the count's n entries on.  Returns 0; 1 when it stopped on
 * the stop flag shared[2]; -1 when memory runs out or n or split is out of
 * range; or -2 when a closure passes `budget` sections.  With anything but
 * 0 the results are meaningless, and either error sets the stop flag. */
int mg_scan(int k, int m, const int32_t *nxt, const int32_t *emit, int na, const int32_t *allowed,
            int ng, const int32_t *group, const int32_t *iota, const uint64_t *comm, int mirror,
            int64_t budget, int n, int split, int counts, uint64_t *examined, int64_t *best,
            int32_t *witness, int64_t *shared)
{
    Scan sc = {
        .k = k, .m = m, .na = na, .ng = ng, .mirror = mirror, .split = split, .counts = counts,
        .pairs = {.m = m, .budget = budget < INT32_MAX ? budget : INT32_MAX}, /* int32 indices */
        .machine = {.count = k, .children = (int32_t *)nxt, .images = (int32_t *)emit},
        .allowed = allowed, .group = group, .comm = comm,
        .claim = -1, .shared = shared, .examined = examined, .best = best, .witness = witness,
    };
    const size_t depths = n >= 1 && n <= MAXN ? (size_t)n : 1;
    const size_t kids = depths * (na ? na : 1);

    sc.n = (int)depths;
    sc.active = malloc((depths + 1) * (ng ? ng : 1) * sizeof *sc.active);
    sc.kid = calloc(kids, sizeof *sc.kid);
    sc.kv = malloc(2 * kids * sizeof *sc.kv);
    sc.kind = malloc(kids);
    sc.scope_best = malloc(2 * depths * depths * sizeof *sc.scope_best);
    sc.scope_witness = malloc(2 * depths * depths * depths * sizeof *sc.scope_witness);
    /* The empty word is its own only section. */
    Closure root = {.children = calloc(m, sizeof(int32_t)), .count = 1, .cap = 1};
    int rc = n < 1 || n > MAXN || split < 0 || split >= n || (comm && k > 64) || !sc.active
             || !sc.kid || !sc.kv || !sc.kind || !sc.scope_best || !sc.scope_witness
             || !root.children || (iota && reversal_maps(&sc, iota)) ? -1 : 0;
    if (!rc)
        for (int j = 0; j < ng; j++)
            sc.active[j] = j;
    /* The census, then the scan; the other workers only scan. */
    for (int pass = !counts; !rc && pass < 2; pass++) {
        sc.census = !pass;
        sc.ordinal = 0;
        for (int i = 0; i < n; i++) {
            examined[i] = 0;
            best[2 * i] = best[2 * i + 1] = -1;
        }
        rc = descend(&sc, 0, &root, sc.active, ng, 0);
        if (!rc && sc.census)
            __atomic_store_n(&shared[3], sc.ordinal, __ATOMIC_RELAXED);
    }
    if (rc < 0)
        __atomic_store_n(&shared[2], 1, __ATOMIC_RELAXED);
    free(root.children);
    for (size_t i = 0; sc.kid && i < kids; i++)
        free(sc.kid[i].children);
    free(sc.kid);
    free(sc.kv);
    free(sc.kind);
    free(sc.scope_best);
    free(sc.scope_witness);
    free(sc.active);
    pairs_free(&sc.pairs);
    free(sc.maps);
    free(sc.lo);
    free(sc.tie);
    free(sc.tie_at);
    return rc;
}


/* ---------------------------------------------------------------------------
 * The closure queries of one machine, through its handle (Query). */

/* A workspace past this many bytes after a call is freed, so that one long
 * word does not keep its memory for the life of the handle. */
#define KEEP (1 << 18)

void mg_closure_free(Closure *c)
{
    free(c->words);
    free(c->starts);
    free(c->children);
    free(c->images);
    free(c->fixed);
    memset(c, 0, sizeof *c);
}

/* What mg_closure hands back. */
typedef struct {
    Closure c;        /* the record: the handle's, which the next call reuses, unless owned */
    int32_t identity; /* whether no section moves a letter */
    int32_t owned;    /* whether c is the caller's, to free with mg_closure_free */
} Record;

/* One machine's closure queries: a copy of its tables, what is known of
 * them, and the workspace that every call reuses. */
typedef struct {
    int k, m;
    int invertible;
    int settled;       /* in this call: whether a half past the budget puts the word past it */
    int32_t *tables;   /* the machine's next, then emit, table: k * m entries each */
    uint64_t fixed[257]; /* per state, then the empty word's */
    int32_t ids[128];  /* the empty word's children, then its images */
    uint8_t states[256];
    Closure machine;   /* the record of a word of one state, rooted at the state */
    Closure empty;     /* the record of the empty word */
    Pairs pairs;
    Closure half[64];  /* per level of the halving, the records of both halves */
    int halves;        /* the entries of half that calls have used */
    Closure out;       /* the record of the word */
    int32_t *paths;    /* longest_path's in-degrees, distances and order */
    size_t paths_cap;  /* entries of paths */
    uint8_t *probe;    /* the stop probe's section words */
    size_t probe_cap;
    uint8_t idle[256]; /* per state, whether it does nothing (see mg_run) */
    uint8_t *run;      /* mg_run's image, then its section word */
    size_t run_cap;
} Query;

/* The record of word[0..n) into *out: the walk, with stop, over the pairs
 * of the records of word[0..n/2) and word[n/2..n), built the same way a
 * level down.  A half past the budget gives -2 if that settles it, else 2. */
static int compose(Query *qc, const uint8_t *word, int n, int level, int stop, Closure *out)
{
    const Closure *h[2];
    int32_t root[2];
    int64_t depth, count;
    for (int i = 0, at = 0, len = n / 2; i < 2; i++, at = len, len = n - len) {
        Closure *c = &qc->half[2 * level + i];
        const int rc = len > 1 ? compose(qc, word + at, len, level + 1, 0, c) : 0;
        if (rc)
            return rc == -2 && !qc->settled ? 2 : rc;
        h[i] = len == 0 ? &qc->empty : len == 1 ? &qc->machine : c;
        root[i] = len == 1 ? word[at] : 0;
    }
    return walk(&qc->pairs, h[0], root[0], h[1], root[1], 1, stop, out, &depth, &count);
}

/* Whether a section of word[0..n) at an input of at most `depth` letters
 * moves a letter; buf has room for (depth + 1) * n states. */
static int moves(const int32_t *nxt, const int32_t *emit, int m, const uint8_t *word, int n,
                 int depth, uint8_t *buf)
{
    for (int x = 0; x < m; x++) {
        int y = x;
        for (int i = n - 1; i >= 0; i--) {
            buf[i] = (uint8_t)nxt[word[i] * m + y];
            y = emit[word[i] * m + y];
        }
        if (y != x || (depth && moves(nxt, emit, m, buf, n, depth - 1, buf + n)))
            return 1;
    }
    return 0;
}

static size_t closure_bytes(const Closure *c, int m)
{
    return (size_t)c->cap * (2 * m * sizeof(int32_t) + sizeof(uint64_t) + sizeof(int64_t))
           + (c->words ? (size_t)c->cap * c->n : 0);
}

/* The bytes q's workspace holds: each array at the size it last grew to
 * (section words at the last walk's length). */
static size_t query_bytes(const Query *q)
{
    const Pairs *pw = &q->pairs;
    size_t bytes = pw->qcap * (2 * sizeof(int32_t) + sizeof(uint64_t))
                   + pw->vcap * (sizeof(uint32_t) + sizeof(int32_t))
                   + (pw->tcap + q->paths_cap) * sizeof(int32_t) + q->probe_cap + q->run_cap
                   + closure_bytes(&q->out, q->m);
    for (int i = 0; i < q->halves; i++)
        bytes += closure_bytes(&q->half[i], q->m);
    return bytes;
}

/* Free q's workspace; the tables stay. */
static void query_trim(Query *q)
{
    pairs_free(&q->pairs);
    q->pairs = (Pairs){.m = q->m};
    for (int i = 0; i < q->halves; i++)
        mg_closure_free(&q->half[i]);
    q->halves = 0;
    mg_closure_free(&q->out);
    free(q->paths);
    q->paths = NULL;
    q->paths_cap = 0;
    free(q->probe);
    q->probe = NULL;
    q->probe_cap = 0;
    free(q->run);
    q->run = NULL;
    q->run_cap = 0;
}

/* The handle of a machine of k <= 256 states and m <= 64 letters, whose
 * tables it copies, and idle[s] whether state s does nothing (the
 * caller's Automaton._trivials); NULL when out of memory or past those
 * sizes. */
Query *mg_query_new(int k, int m, const int32_t *nxt, const int32_t *emit, const uint8_t *idle)
{
    const uint64_t all = m == 64 ? ~0ULL : (1ULL << m) - 1;
    const size_t cells = (size_t)k * m;
    Query *q = k < 1 || k > 256 || m < 1 || m > 64 ? NULL : calloc(1, sizeof *q);
    if (!q || !(q->tables = malloc(2 * cells * sizeof *q->tables))) {
        free(q);
        return NULL;
    }
    memcpy(q->tables, nxt, cells * sizeof *q->tables);
    memcpy(q->tables + cells, emit, cells * sizeof *q->tables);
    memcpy(q->idle, idle, k);
    q->k = k;
    q->m = m;
    q->invertible = 1;
    q->machine = (Closure){.count = k, .children = q->tables, .images = q->tables + cells,
                           .fixed = q->fixed, .words = q->states, .n = 1};
    q->empty = (Closure){.count = 1, .children = q->ids, .images = q->ids + m,
                         .fixed = q->fixed + k, .words = q->states};
    q->pairs.m = m;
    q->fixed[k] = all;
    for (int x = 0; x < m; x++)
        q->ids[m + x] = x;
    for (int s = 0; s < k; s++) {
        uint64_t seen = 0;
        q->states[s] = (uint8_t)s;
        for (int x = 0; x < m; x++) {
            seen |= 1ULL << emit[s * m + x];
            q->fixed[s] |= (uint64_t)(emit[s * m + x] == x) << x;
        }
        q->invertible &= seen == all;
    }
    return q;
}

void mg_query_free(Query *q)
{
    if (!q)
        return;
    query_trim(q);
    free(q->tables);
    free(q);
}

/* 3 when a state of word[0..n) is past q's tables, else 0. */
static int past_tables(const Query *q, const uint8_t *word, int n)
{
    for (int i = 0; i < n; i++)
        if (word[i] >= q->k)
            return 3;
    return 0;
}

/* The record of word[0..n) into q->out (see compose). */
static int query_walk(Query *q, int n, const uint8_t *word, int64_t budget, int stop, int nodes)
{
    const int halves = 2 * (32 - __builtin_clz(n | 1)); /* at most, the entries compose uses */
    q->pairs.nodes = nodes;
    q->pairs.budget = budget < INT32_MAX ? budget : INT32_MAX; /* int32 indices */
    q->settled = q->invertible && !stop;
    q->halves = halves > q->halves ? halves : q->halves;
    return compose(q, word, n, 0, stop, &q->out);
}

static int fixes_every_letter(const Closure *c, int m)
{
    for (int64_t i = 0; i < c->count; i++)
        for (int x = 0; x < m; x++)
            if (c->images[i * m + x] != x)
                return 0;
    return 1;
}

/* The closure record of word[0..n) into *r, with the section words when
 * flags has bit 1 set; with bit 0 (stop) set it answers is_identity.
 * Returns 0; 1 when stop is set and a node moves a letter; 2 when a half
 * passes `budget` nodes and that does not settle the answer (see the top);
 * 3 when a state of the word is past the machine's tables; -1 when memory
 * runs out; or -2 past `budget`.  Only on 0 does r hold a record, and
 * whether the word is the identity.  The record is the handle's, good until
 * the next call, unless the call left the workspace past KEEP bytes: then
 * it is the caller's (r->owned), to free with mg_closure_free, and the
 * rest of the workspace is freed. */
int mg_closure(Query *q, int n, const uint8_t *word, int64_t budget, int flags, Record *r)
{
    const int stop = flags & 1;
    int rc = past_tables(q, word, n);
    memset(r, 0, sizeof *r);
    /* With stop, the sections at inputs of up to two letters first: most
     * words that are not the identity move a letter there. */
    if (!rc && stop && 3 * (size_t)n + 1 > q->probe_cap) {
        rc = grow(&q->probe, 3 * (size_t)n + 1);
        q->probe_cap = rc ? q->probe_cap : 3 * (size_t)n + 1;
    }
    for (int depth = 0; stop && !rc && depth <= 2; depth++)
        rc = moves(q->machine.children, q->machine.images, q->m, word, n, depth, q->probe);
    if (!rc)
        rc = query_walk(q, n, word, budget, stop, flags >> 1 & 1);
    const int trim = rc == -1 || query_bytes(q) > KEEP;
    if (!rc) {
        r->c = q->out;
        r->identity = stop || fixes_every_letter(&q->out, q->m);
        r->owned = trim;
        if (trim)
            memset(&q->out, 0, sizeof q->out);
    }
    if (trim)
        query_trim(q);
    return rc;
}

/* The fixing threshold of a closure record of `count` nodes (the twin of
 * _path_threshold), over ws, room for 3 * count entries.  Node v is a
 * section at input length L when a path of L steps leads from node 0 to
 * v, and every node is reachable from node 0.  A node fixing no letter
 * that lies below a cycle recurs at unboundedly long inputs: -1.  Else the
 * threshold is one past the longest path to such a node, 0 when there is
 * none.  Peeling nodes of in-degree 0 from node 0 (Kahn) leaves exactly
 * the nodes below a cycle, and its order gives the longest paths. */
static int64_t longest_path(int32_t *ws, int64_t count, int m, const int32_t *children,
                            const uint64_t *fixed)
{
    int32_t *in = ws, *dist = ws + count, *order = ws + 2 * count;
    int64_t len = 0, threshold = 0;
    memset(ws, 0, 2 * (size_t)count * sizeof *ws);
    for (int64_t i = 0; i < count * m; i++)
        in[children[i]]++;
    if (!in[0])
        order[len++] = 0;
    for (int64_t q = 0; q < len; q++) {
        const int32_t u = order[q], *row = children + (int64_t)u * m;
        for (int x = 0; x < m; x++) {
            if (dist[row[x]] <= dist[u])
                dist[row[x]] = dist[u] + 1;
            if (!--in[row[x]])
                order[len++] = row[x];
        }
    }
    for (int64_t i = 0; i < count; i++)
        if (!fixed[i]) {
            if (in[i])
                return -1;
            if (dist[i] >= threshold)
                threshold = dist[i] + 1;
        }
    return threshold;
}

/* The fixing threshold of word[0..n) into *threshold (-1 when there is
 * none): the record and the pass above in one call, so the record never
 * leaves C.  Returns what mg_closure returns without stop, or -1 when
 * memory runs out. */
int mg_threshold(Query *q, int n, const uint8_t *word, int64_t budget, int64_t *threshold)
{
    int rc = past_tables(q, word, n);
    if (!rc)
        rc = query_walk(q, n, word, budget, 0, 0);
    if (!rc && 3 * (size_t)q->out.count > q->paths_cap) {
        rc = grow(&q->paths, 3 * (size_t)q->out.count * sizeof *q->paths);
        q->paths_cap = rc ? q->paths_cap : 3 * (size_t)q->out.count;
    }
    if (!rc)
        *threshold = longest_path(q->paths, q->out.count, q->m, q->out.children, q->out.fixed);
    if (rc == -1 || query_bytes(q) > KEEP)
        query_trim(q);
    return rc;
}

/* The image of letters[0..len) (1-based, one byte each) under word[0..n),
 * the rightmost state reading first, and the state each position ends in:
 * the twin of automata.apply and section_word.  A position stops reading
 * at a do-nothing state, which would leave the rest as it is and stay put.
 * Returns q's buffer, good until the next call: the image (1-based), then
 * the n end states.  NULL when a state is past q's tables, a letter is
 * outside 1..m, or memory runs out.  A buffer that a long input left past
 * KEEP bytes is freed here, with the rest of the workspace, before it is
 * reused. */
uint8_t *mg_run(Query *q, int n, const uint8_t *word, int64_t len, const uint8_t *letters)
{
    const int m = q->m;
    const int32_t *nxt = q->machine.children, *emit = q->machine.images;
    const size_t size = (size_t)len + n;
    if (past_tables(q, word, n))
        return NULL;
    for (int64_t j = 0; j < len; j++)
        if (letters[j] < 1 || letters[j] > m)
            return NULL;
    if (query_bytes(q) > KEEP)
        query_trim(q);
    if (!q->run || size > q->run_cap) {
        if (grow(&q->run, size))
            return NULL;
        q->run_cap = size;
    }
    uint8_t *v = q->run, *end = q->run + len;
    for (int64_t j = 0; j < len; j++)
        v[j] = letters[j] - 1;
    for (int i = n - 1; i >= 0; i--) {
        int s = word[i];
        for (int64_t j = 0; j < len && !q->idle[s]; j++) {
            const int c = v[j];
            v[j] = (uint8_t)emit[s * m + c];
            s = nxt[s * m + c];
        }
        end[i] = (uint8_t)s;
    }
    for (int64_t j = 0; j < len; j++)
        v[j]++;
    return q->run;
}
