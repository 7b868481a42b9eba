/* Compiled twins of two parts of mealygroup.analysis, for machines of any
 * shape.  Built on first use and loaded with ctypes by _kernel.py; the
 * Python code stays the reference they are tested against.
 *
 * mg_scan is the survey scan, the twin of _scan_lengths: one canonical DFS
 * that records the depth and count of every word up to the longest length.
 * A section of a product is a product of sections: with s the state that
 * reads a letter first, (w s)|x = w|s(x) s|x.  So the closure of w s is the
 * part of closure(w) x states reachable from (w, s), and the pair (a, t)
 * has at letter x the child (ch[a][emit[t][x]], nxt[t][x]).  Distinct pairs
 * are distinct section words, so a breadth-first walk over pairs has the
 * levels, depth and section count (the word itself included) of the walk
 * over section words, and numbers the nodes as _walk_record does.  Depth
 * and count need no images of letters, so the DFS keeps only the child
 * table (the closure automaton) of each node's closure, and a leaf walks
 * its pairs without storing one.  Every node of the DFS is a canonical
 * word, and the walk that builds its closure yields its depth and count
 * too, so each node counts toward its own length: one DFS to length n
 * gives the results of every shorter length as well.  The DFS visits the
 * allowed states in the caller's order, so the words of each length come
 * in lex order, and a witness is replaced only on a strictly better value:
 * closures computed and witnesses equal those of the Python scan.  Given
 * one mask per state of the states that commute with it, the DFS carries
 * the set f of states that may not come next: after appending c it is
 * comm[c] & (f | {a : a < c}).  The words that f lets through are the
 * lex-least of their classes under swaps of adjacent commuting states, and
 * the rule is closed under prefixes, so it prunes whole subtrees.  Given
 * iota, the scan also passes over a word of its last length when some map
 * t = sigma o iota, sigma in the group or the identity, makes
 * t(reversed(word)) lex-smaller.
 *
 * The DFS goes children first: at each node it builds every canonical
 * child's automaton into a buffer of its own and records the children
 * before it descends into any.  A child whose automaton, tying symmetries
 * and forbidden set are its parent's is a mirror, and the words below it
 * are those below the parent with one letter inserted, of the same depth
 * and count.  It is recorded but not descended into.  Only a node with a
 * mirror child keeps the words below it apart, in a scope of per-length
 * bests of its own, and folds the mirrors' subtrees into it once its other
 * children are done (fold); a node without one records straight into the
 * enclosing scope.  Words these rules leave out have the depth and count
 * of a word kept or folded (the arguments are in survey's docstring).
 * Each of the caller's worker threads makes one mg_scan call, which runs
 * the whole DFS with one workspace, into results of its own.  At the split
 * depth a worker descends into a node only when it has claimed the node's
 * ordinal from a shared atomic counter, so each subtree there is scanned
 * by one worker, and every worker walks and records the words above it
 * and folds every mirror on its own results; the caller merges them per
 * length.  A failed worker or the caller sets a shared stop flag, after
 * which no worker claims a subtree.
 *
 * mg_closure is the closure record of one word that the queries read (the
 * Python walk in _walk_record is its twin).  A do-nothing state passes
 * every letter on and stays put, so each node lists the positions whose
 * state is not one and steps only those.  With the stop flag set it
 * answers is_identity: once a node's images are set and one of them moves
 * a letter, the word is not the identity, and it frees the record and
 * returns 1.  mg_threshold is fixing_threshold in one call: it builds the
 * record with mg_closure, runs the eventual-period loop (the twin of
 * _period_threshold) over its child table and fixed letters, frees it, and
 * hands back only the threshold.  Section words there take one byte per
 * position (k <= 256), so words of any length fit.
 *
 * Both walks stop with -2 once a closure passes `budget` sections, and
 * return -1 when memory runs out.
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

/* The closure automaton of one word: node 0 is the word itself. */
typedef struct {
    int32_t *ch; /* size * m: node a's section at letter x at [a*m + x] */
    int64_t size, cap;
} Level;

typedef struct {
    int k, m, n, na, ng;
    int64_t budget;
    const int32_t *nxt, *emit, *allowed, *group;
    const uint64_t *comm; /* per state, the states that commute with it, or NULL */
    int32_t *active;   /* per DFS level, indices into group of the symmetries still tying */
    /* The reversal test, when twin is not NULL: twin holds the maps
     * sigma o iota (the identity first, then each of group), k entries each;
     * per state l, lo[l] is the least t(l) over those maps t, and
     * tie[tie_at[l] .. tie_at[l+1]) lists the maps that give it. */
    int32_t *twin, *lo, *tie, *tie_at;
    int mirror;        /* whether mirror children are folded (see rec) */
    int split;         /* the depth at which subtrees are claimed (see descend) */
    int counts;        /* whether words of length <= split count toward examined */
    int64_t ordinal;   /* the next node of depth split, numbered in DFS order */
    int64_t claim;     /* the ordinal this worker holds, or -1 */
    int64_t *shared;   /* the caller's: next ordinal to claim, prefixes done, stop flag */
    int32_t word[MAXN];
    /* Per DFS depth d and allowed state a, the child word[0..d) allowed[a]:
     * its closure automaton, its depth and count, and what rec does with it. */
    Level *kid;
    int64_t *kv;
    uint8_t *kind;
    /* Per DFS depth, a scope's bests and witnesses, laid out as the caller's. */
    int64_t *scope_best;
    int32_t *scope_witness;
    int32_t *qa, *qt;  /* the walk's queue of pairs (prefix node, state) */
    int64_t qcap;      /* entries qa and qt have room for */
    uint32_t *stamp;   /* per pair code a*k + t: seen in this walk iff == gen */
    int32_t *index;    /* per pair code: its node index, when out is kept */
    size_t vcap;
    uint32_t gen;
    uint64_t *examined; /* the caller's, per length */
    int64_t *best;     /* the caller's: best depth, then best count, per length */
    int32_t *witness;  /* the caller's: depth witness, then count witness, n each per length */
} Scan;

/* Walk the closure of (word of p) s, whose nodes are pairs (node of p,
 * state); root 0 = (0, s).  Writes depth and section count as _depth_count
 * does, and, when out is not NULL, the closure automaton into *out. */
static int extend(Scan *sc, const Level *p, int s, Level *out, int64_t *depth, int64_t *count)
{
    const int k = sc->k, m = sc->m;
    const int32_t *nxt = sc->nxt, *emit = sc->emit;
    const size_t codes = (size_t)p->size * k, root = (size_t)s;
    const int64_t budget = sc->budget;
    /* A walk has at most one node per pair code, and stops at the budget. */
    const int64_t most = (int64_t)codes < budget ? (int64_t)codes : budget;
    int64_t len = 1, start = 0, end = 1, levels = 0;

    if (codes > sc->vcap) {
        free(sc->stamp);
        sc->stamp = calloc(codes, sizeof *sc->stamp);
        if (!sc->stamp || grow(&sc->index, codes * sizeof *sc->index))
            return -1;
        sc->vcap = codes;
        sc->gen = 0;
    }
    if (most > sc->qcap) {
        if (grow(&sc->qa, most * sizeof *sc->qa) || grow(&sc->qt, most * sizeof *sc->qt))
            return -1;
        sc->qcap = most;
    }
    if (out && most > out->cap) {
        if (grow(&out->ch, most * m * sizeof *out->ch))
            return -1;
        out->cap = most;
    }
    if (++sc->gen == 0) {
        memset(sc->stamp, 0, sc->vcap * sizeof *sc->stamp);
        sc->gen = 1;
    }
    const uint32_t gen = sc->gen;
    uint32_t *stamp = sc->stamp;
    int32_t *index = sc->index, *qa = sc->qa, *qt = sc->qt;
    stamp[root] = gen;
    index[root] = 0;
    qa[0] = 0;
    qt[0] = s;
    while (start < end) {
        for (int64_t q = start; q < end; q++) {
            const int32_t *ch = p->ch + (size_t)qa[q] * m;
            const int32_t *nrow = nxt + (size_t)qt[q] * m, *erow = emit + (size_t)qt[q] * m;
            for (int x = 0; x < m; x++) {
                const int y = erow[x];
                const size_t code = (size_t)ch[y] * k + nrow[x];
                if (stamp[code] != gen) {
                    if (len == budget)
                        return -2;
                    stamp[code] = gen;
                    qa[len] = ch[y];
                    qt[len] = nrow[x];
                    if (out)
                        index[code] = (int32_t)len;
                    len++;
                }
                if (out)
                    out->ch[q * m + x] = index[code];
            }
        }
        if (len == end)
            break;
        levels++;
        start = end;
        end = len;
    }
    if (out)
        out->size = len;
    *depth = levels;
    *count = len;
    return 0;
}

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

/* Fill the tables of the reversal test from iota (see Scan). */
static int twins(Scan *sc, const int32_t *iota)
{
    const int k = sc->k, nt = sc->ng + 1;
    sc->twin = malloc((size_t)nt * k * sizeof *sc->twin);
    sc->tie = malloc((size_t)nt * k * sizeof *sc->tie);
    sc->lo = malloc(k * sizeof *sc->lo);
    sc->tie_at = malloc((k + 1) * sizeof *sc->tie_at);
    if (!sc->twin || !sc->tie || !sc->lo || !sc->tie_at)
        return -1;
    for (int j = 0; j < nt; j++)
        for (int s = 0; s < k; s++)
            sc->twin[(size_t)j * k + s] = j ? sc->group[(size_t)(j - 1) * k + iota[s]] : iota[s];
    int at = 0;
    for (int l = 0; l < k; l++) {
        int lo = sc->twin[l];
        for (int j = 1; j < nt; j++)
            if (sc->twin[(size_t)j * k + l] < lo)
                lo = sc->twin[(size_t)j * k + l];
        sc->lo[l] = lo;
        sc->tie_at[l] = at;
        for (int j = 0; j < nt; j++)
            if (sc->twin[(size_t)j * k + l] == lo)
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
        const int32_t *t = sc->twin + (size_t)sc->tie[j] * sc->k;
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

static int same_automaton(const Level *a, const Level *b, int m)
{
    return a->size == b->size && !memcmp(a->ch, b->ch, (size_t)a->size * m * sizeof *a->ch);
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

enum { SKIP, DESCEND, MIRROR };

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

/* The canonical words of `left` letters more than word[0..depth), whose
 * tying symmetries are active[0..nact) and whose forbidden set is f; the
 * rows of sc->active past depth hold the symmetries on the way. */
static int64_t canonical_words(const Scan *sc, int depth, const int32_t *active, int nact,
                               uint64_t f, int left)
{
    int32_t *sub = sc->active + (size_t)(depth + 1) * sc->ng;
    int64_t total = 0;
    int keep;
    if (!left)
        return 1;
    for (int a = 0; a < sc->na; a++) {
        const int s = sc->allowed[a];
        if (!(sc->comm && f >> s & 1) && (keep = tying(sc, active, nact, s, sub)) >= 0)
            total += canonical_words(sc, depth + 1, sub, keep, forbid(sc, f, s), left - 1);
    }
    return total;
}

static int rec(Scan *sc, int depth, const Level *p, const int32_t *active, int nact, uint64_t f);

/* rec below v = word[0..depth), except at the split depth, where only the
 * worker that claims v's ordinal from the shared counter goes on.  Every
 * worker numbers the nodes of that depth alike, in DFS order, and holds
 * one claim at a time: once past it, it reads the stop flag and claims the
 * next ordinal not yet taken.  The counter only grows, so each node is
 * claimed once, by a worker that has not yet passed it.  Returns 1 once
 * the stop flag is set. */
static int descend(Scan *sc, int depth, const Level *p, const int32_t *active, int nact,
                   uint64_t f)
{
    if (depth != sc->split)
        return rec(sc, depth, p, active, nact, f);
    const int64_t i = sc->ordinal++;
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
 * recorded, except a word of length n that the reversal test passes over;
 * a leaf keeps no automaton.  Children come first: each one's automaton
 * is built and the children recorded before any is descended into.  A
 * child c = v s shorter than n is a mirror when its automaton, its tying
 * symmetries (every one that ties on v fixes s) and its forbidden set are
 * v's: extend reads nothing else, so the words below c are v s u for the
 * words v u below v, with their depths and counts (survey has the
 * argument).  A mirror is recorded but not descended into; the counting
 * worker adds the canonical words of the split length below it to the
 * prefixes done.  A node with mirror children records the words below it
 * in a scope of its own, folds the mirrors' subtrees there (fold), and
 * then merges the scope into the enclosing one, where a word of the scope
 * replaces the best only when strictly better: it comes later in lex
 * order. */
static int rec(Scan *sc, int depth, const Level *p, const int32_t *active, int nact, uint64_t f)
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
            if (sc->twin && reversal_smaller(sc))
                continue;
            if ((rc = extend(sc, p, s, NULL, &d, &t)))
                return rc;
            record(sc, depth + 1, d, t);
        }
        return 0;
    }
    Level *kid = sc->kid + (size_t)depth * na;
    int64_t *kv = sc->kv + 2 * (size_t)depth * na;
    uint8_t *kind = sc->kind + (size_t)depth * na;
    for (int a = 0; a < na; a++) {
        const int s = sc->allowed[a];
        kind[a] = SKIP;
        if ((sc->comm && f >> s & 1) || (keep = tying(sc, active, nact, s, sub)) < 0)
            continue;
        if ((rc = extend(sc, p, s, &kid[a], &kv[2 * a], &kv[2 * a + 1])))
            return rc;
        kind[a] = sc->mirror && keep == nact && forbid(sc, f, s) == f
                  && same_automaton(&kid[a], p, sc->m) ? MIRROR : DESCEND;
        mirrors += kind[a] == MIRROR;
    }
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
            if (kind[a] == MIRROR && sc->counts && depth < sc->split)
                __atomic_fetch_add(&sc->shared[1],
                                   canonical_words(sc, depth + 1, active, nact, f,
                                                   sc->split - depth - 1),
                                   __ATOMIC_RELAXED);
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
 * counter shared[0] (see descend).  shared[1] counts the canonical words of
 * length split done: those whose subtree a worker scanned, and, when
 * counts is set, those below a mirror this worker passed; once every
 * worker is done, it is their number.  Only the worker with counts set
 * counts the words of length <= split toward examined, so the workers'
 * examined add up to the closures the DFS computed.  With comm (k <= 64
 * masks) not NULL, words pass the commutation rule too; with iota (k
 * entries) not NULL, words of length n pass the reversal test; with
 * mirror set, mirror children are folded (see rec).  The worker's results
 * for length L go to index j = L - 1: closures computed in examined[j],
 * best depth in best[2j] (-1 when it reached no word of length L), best
 * count in best[2j+1], and their witnesses at witness[2nj], the count's n
 * entries on.  Returns 0; 1 when it stopped on the stop flag shared[2];
 * -1 when memory runs out or n or split is out of range; or -2 when a
 * closure passes `budget` sections.  With anything but 0 the results are
 * meaningless, and either error sets the stop flag. */
int mg_scan(int k, int m, const int32_t *nxt, const int32_t *emit, int na, const int32_t *allowed,
            int ng, const int32_t *group, const int32_t *iota, const uint64_t *comm, int mirror,
            int64_t budget, int n, int split, int counts, uint64_t *examined, int64_t *best,
            int32_t *witness, int64_t *shared)
{
    Scan sc = {
        .k = k, .m = m, .na = na, .ng = ng, .mirror = mirror, .split = split, .counts = counts,
        .budget = budget < INT32_MAX ? budget : INT32_MAX, /* node indices are int32 */
        .nxt = nxt, .emit = emit, .allowed = allowed, .group = group, .comm = comm,
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
    Level root = {.ch = calloc(m, sizeof(int32_t)), .size = 1, .cap = 1};
    int rc = n < 1 || n > MAXN || split < 0 || split >= n || (comm && k > 64) || !sc.active
             || !sc.kid || !sc.kv || !sc.kind || !sc.scope_best || !sc.scope_witness || !root.ch
             || (iota && twins(&sc, iota)) ? -1 : 0;
    if (!rc) {
        for (int i = 0; i < n; i++) {
            examined[i] = 0;
            best[2 * i] = best[2 * i + 1] = -1;
        }
        for (int j = 0; j < ng; j++)
            sc.active[j] = j;
        rc = descend(&sc, 0, &root, sc.active, ng, 0);
    }
    if (rc < 0)
        __atomic_store_n(&shared[2], 1, __ATOMIC_RELAXED);
    free(root.ch);
    for (size_t i = 0; sc.kid && i < kids; i++)
        free(sc.kid[i].ch);
    free(sc.kid);
    free(sc.kv);
    free(sc.kind);
    free(sc.scope_best);
    free(sc.scope_witness);
    free(sc.active);
    free(sc.qa);
    free(sc.qt);
    free(sc.stamp);
    free(sc.index);
    free(sc.twin);
    free(sc.lo);
    free(sc.tie);
    free(sc.tie_at);
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
    int64_t budget;
    Closure *c;
    int64_t cap;       /* nodes the arrays of c have room for */
    int64_t scap;      /* entries starts has room for */
    const uint64_t *fix;
    uint64_t all;      /* every letter */
    uint64_t *hash;    /* per node */
    int32_t *slot;     /* open addressing: node index + 1, 0 when empty */
    size_t tcap;
} Walk;

static uint64_t mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
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

/* Index of the node with states w, added when new; -1 when out of memory,
 * -2 past the budget. */
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
    if (i == b->budget)
        return -2;
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
 * and m <= 64 letters, into *c.  Returns 0, 1 when stop is set and a node
 * moves a letter, -1 when memory runs out or -2 when the closure passes
 * `budget` nodes (c is freed unless it returns 0). */
int mg_closure(int k, int m, const int32_t *nxt, const int32_t *emit, int n,
               const uint8_t *word, int64_t budget, int stop, Closure *c)
{
    Walk b = {.n = n, .m = m, .budget = budget, .c = c, .cap = 64, .scap = 16};
    uint64_t *fix = malloc(k * sizeof *fix);
    int32_t *letter = malloc(m * sizeof *letter), *moving = malloc((size_t)n * sizeof *moving + 1);
    uint8_t *kid = malloc((size_t)m * n + 1), *idle = malloc(k);
    int rc = -1;

    memset(c, 0, sizeof *c);
    b.fix = fix;
    b.all = m == 64 ? ~0ULL : (1ULL << m) - 1;
    if (!fix || !letter || !moving || !kid || !idle || grow(&c->words, b.cap * n)
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
    int64_t root = intern(&b, word);
    if (root < 0) {
        rc = (int)root;
        goto done;
    }
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
            /* Only the positions whose state is not a do-nothing state
             * are stepped, right to left; the list is built without a
             * branch. */
            int nm = 0;
            for (int i = n - 1; i >= 0; i--) {
                moving[nm] = i;
                nm += !idle[p[i]];
            }
            for (int j = 0; j < nm; j++) {
                const int i = moving[j];
                const int32_t *nrow = nxt + p[i] * m, *erow = emit + p[i] * m;
                for (int x = 0; x < m; x++) {
                    int l = letter[x];
                    kid[x * n + i] = (uint8_t)nrow[l];
                    letter[x] = erow[l];
                }
            }
            for (int x = 0; x < m; x++) {
                int64_t child = intern(&b, kid + (size_t)x * n);
                if (child < 0) {
                    rc = (int)child;
                    goto done;
                }
                c->children[q * m + x] = (int32_t)child;
                c->images[q * m + x] = letter[x];
                if (stop && letter[x] != x)
                    rc = 1;
            }
            if (rc == 1)
                goto done;
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
    free(moving);
    free(kid);
    free(idle);
    free(b.hash);
    free(b.slot);
    return rc;
}

/* The eventual-period loop of fixing_threshold over a closure record of
 * `count` nodes.  The sets of sections at input lengths 0, 1, ... start at
 * {node 0} and step through `children`; being subsets of a finite set, they
 * repeat from some length on.  Sets *threshold to one past the last length
 * whose set holds a node fixing no letter, or to -1 when such a set lies on
 * the repeating part (no threshold).  Returns 0, or -1 when memory runs
 * out.  Sets are bitsets over node indices. */
static int period(int64_t count, int m, const int32_t *children, const uint64_t *fixed,
                  int64_t *threshold)
{
    const size_t words = (size_t)(count + 63) / 64, bytes = words * sizeof(uint64_t);
    uint64_t *bad = calloc(words, sizeof *bad), *next = calloc(words, sizeof *next);
    uint64_t *hist = NULL, *hash = NULL;
    uint8_t *hist_bad = NULL;
    int32_t *slot = NULL;
    size_t tcap = 0, cap = 0, len = 0;
    int64_t last_bad = -1;
    int rc = -1;

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
                *threshold = last_bad + 1;
                for (; t < len; t++)
                    if (hist_bad[t])
                        *threshold = -1;
                rc = 0;
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
    return rc;
}

/* The fixing threshold of word[0..n) into *threshold (-1 when there is
 * none): mg_closure and the loop above in one call, so the record never
 * leaves C.  Returns what mg_closure returns, or -1 when the loop runs out
 * of memory. */
int mg_threshold(int k, int m, const int32_t *nxt, const int32_t *emit, int n,
                 const uint8_t *word, int64_t budget, int64_t *threshold)
{
    Closure c;
    int rc = mg_closure(k, m, nxt, emit, n, word, budget, 0, &c);
    if (rc)
        return rc;
    rc = period(c.count, m, c.children, c.fixed, threshold);
    mg_closure_free(&c);
    return rc;
}
