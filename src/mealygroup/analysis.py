"""Section closures, the word problem, and exhaustive depth/growth surveys.

The closure of a state word is the set of all its sections, discovered
breadth-first by input length: level 0 is the word itself, level L+1 holds
the sections first reached by reading one more letter.  The closure is
finite, its last new level is the word's *depth*, and a word acts as the
identity exactly when every closure member permutes single letters
trivially -- which is the decision procedure behind :func:`is_identity`.

The survey enumerates all words up to a length bound and reports, per
length, the maximum depth and the maximum number of sections together
with witnesses.  Six value-preserving reductions keep this tractable:
words containing do-nothing states are skipped (inserting such a state
changes neither depth nor section count), only the lexicographically
least representative of each orbit under the machine's letter-relabeling
automorphisms is examined, only the lex-least order of adjacent
commuting states is (:func:`commuting_states`), and at the longest
length a word is passed over when a relabeled mirror image of it that
acts as its inverse is lex-smaller (:func:`inverse_states`); and a
subtree of the DFS whose root has its parent's closure automaton and
pruning state is folded from the parent's results, not scanned, and one
whose root has an earlier sibling's is skipped.  One canonical DFS to
the longest length gives every length's maxima, since each word it
reaches counts toward its own length.  Worker threads split
that DFS by canonical prefix; results merge per length by a max-value /
lex-least-witness rule, so output is identical for any worker count.

Every closure question -- depth, section count, the word problem, fixing
thresholds -- reads one closure record of the word: its sections in
breadth-first order with level boundaries, the child table, the images
of single letters, each section's fixed letters and whether the word is
the identity (``_Closure``).  The record comes from a compiled kernel
(``mg_closure`` in ``_kernel.c``, on a handle kept per machine), which
builds it from the records of the word's halves without stepping a
section word.  The Python walk (``_walk_record``), one breadth-first loop
that fills the same record, is its reference twin: it builds the record
when no kernel can be built, the machine has more than 256 states or 64
letters, or a half of the word passes the section budget where that
leaves the answer open (see ``_kernel.ClosureKernel``), and the reference
survey scan reads depth and count off it.  Each query reads one record
(``_record``), and only the fields it names leave C; :func:`fixing_threshold`
runs the record and its longest-path pass in one call (``mg_threshold``).

The survey's scan runs in the same compiled library (``mg_scan``).  A
section of a product is a product of sections, so it builds the closure
of each word from the closure automaton of its prefix, which the
canonical DFS keeps at every depth, without ever forming a section word,
and records the depth and count of every word on the way.
The Python scan, which takes its statistics straight from the walk, is
that kernel's reference and the automatic fallback when no kernel can be
built or words are longer than 64.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .automata import (
    Automaton,
    AutomatonError,
    _kernel_module,
    check_state_word,
    format_automaton,
    format_state_word,
)

__all__ = [
    "SectionClosure",
    "section_closure",
    "word_depth",
    "section_count",
    "is_identity",
    "word_problem",
    "common_fixed_letter",
    "strip_fixed_letter",
    "fixed_block_count",
    "GrowthRow",
    "GrowthReport",
    "BudgetError",
    "WORD_BUDGET",
    "survey",
    "render_growth_csv",
    "automaton_symmetries",
    "inverse_states",
    "commuting_states",
    "orbit_count",
    "strict_log2",
    "threshold_bound",
    "fixing_threshold",
    "ThresholdSample",
    "ThresholdReport",
    "threshold_survey",
    "render_threshold_csv",
]


# ---------------------------------------------------------------------------
# Closure machinery.


class _Closure(NamedTuple):
    """The section closure of one word, its nodes in the order the
    breadth-first walk first reaches them; node 0 is the word itself."""

    nodes: list  # the state word of each node
    starts: list  # level L holds nodes starts[L] .. starts[L+1] - 1
    children: list  # children[i*m + x]: index of node i's section at letter x
    images: list  # images[i*m + x]: the 0-based image of letter x under node i
    fixed: list  # per node, the bitmask of the letters all its states fix
    identity: bool  # whether no node moves a letter: the word acts as the identity

    @property
    def depth(self) -> int:
        return len(self.starts) - 2


def _walk_record(auto: Automaton, word: Sequence[int], stop: bool = False) -> Optional[_Closure]:
    """The closure record from the Python walk: the reference twin of the
    compiled ``mg_closure``, and the fallback when it cannot be used or
    leaves the word to it.

    One breadth-first loop expands each node once and numbers each section
    as it is first reached; a level ends where the sections that the level
    before it reached end.  Adding section ``_kernel.SECTION_BUDGET`` + 1
    raises :class:`BudgetError`.  With ``stop``, None once an expanded node
    moves a letter, as ``mg_closure`` stops with its stop flag."""
    _kernel = _kernel_module()
    root = check_state_word(auto, word)
    letters = range(auto.alphabet_size)
    identity = list(letters)
    nxt, emit0 = auto._next, auto._emit0
    n = len(root)
    positions = range(n - 1, -1, -1)
    budget = _kernel.SECTION_BUDGET
    nodes, starts, children, images = [root], [0], [], []
    fixed = [_fixed_mask(auto, root)]
    index = {root: 0}
    for q, p in enumerate(nodes):  # nodes grows while the loop reads it
        if q == starts[-1]:
            starts.append(len(nodes))
        for x in letters:
            c = x
            child = [0] * n
            for i in positions:
                s = p[i]
                child[i] = nxt[s][c]
                c = emit0[s][c]
            child = tuple(child)
            j = index.get(child)
            if j is None:
                j = index[child] = len(nodes)
                if j == budget:
                    raise _kernel.budget_error()
                nodes.append(child)
                fixed.append(_fixed_mask(auto, child))
            children.append(j)
            images.append(c)
        if stop and images[-len(identity) :] != identity:
            return None
    return _Closure(nodes, starts, children, images, fixed, images == identity * len(nodes))


def _record(auto: Automaton, word: Sequence[int], fields: Sequence[str], stop: bool = False):
    """The closure record of ``word`` that a query reading ``fields`` takes:
    the compiled kernel's, which copies only those fields out of C, when it
    loads for ``auto``; else the Python walk's, which fills every field.
    Both run with ``stop``.  Every closure query picks its twin here."""
    kernel = _kernel_module().compiled_closure(auto)
    if kernel is None:
        return _walk_record(auto, word, stop)
    return kernel.record(word, fields, stop)


@dataclass(frozen=True)
class SectionClosure:
    """All sections of a state word, grouped by the input length at which
    each first appears."""

    word: tuple
    levels: tuple  # tuple[frozenset[StateWord], ...]; index = first input length
    all_sections: frozenset
    depth: int

    @property
    def count(self) -> int:
        return len(self.all_sections)


def section_closure(auto: Automaton, word: Sequence[int]) -> SectionClosure:
    """Breadth-first closure of ``word`` under sectioning at single letters."""
    rec = _record(auto, word, ("nodes", "starts"))
    levels = tuple(frozenset(rec.nodes[a:b]) for a, b in zip(rec.starts, rec.starts[1:]))
    return SectionClosure(
        word=rec.nodes[0],
        levels=levels,
        all_sections=frozenset().union(*levels),  # reuses the hashes the levels hold
        depth=rec.depth,
    )


def word_depth(auto: Automaton, word: Sequence[int]) -> int:
    """Largest input length at which ``word`` still has a new section."""
    return _record(auto, word, ("starts",)).depth


def section_count(auto: Automaton, word: Sequence[int]) -> int:
    """Number of distinct sections of ``word``, the word itself included."""
    return _record(auto, word, ("starts",)).starts[-1]


def is_identity(auto: Automaton, word: Sequence[int]) -> bool:
    """Decide whether the word acts as the identity on all inputs: true iff
    every section permutes single letters trivially.  The walk stops at the
    first section that moves one, even where the whole closure would pass
    the section budget; only an identity word can raise BudgetError."""
    if not auto.is_invertible:
        raise AutomatonError("the word problem is decided only for invertible automata")
    return _record(auto, word, (), stop=True) is not None


def word_problem(auto: Automaton, word: Sequence[int]) -> tuple:
    """``(is_identity, section count, depth)`` of ``word``, all three read
    off one whole closure record."""
    if not auto.is_invertible:
        raise AutomatonError("the word problem is decided only for invertible automata")
    rec = _record(auto, word, ("starts", "identity"))
    return rec.identity, rec.starts[-1], rec.depth


# ---------------------------------------------------------------------------
# Fixed letters.


def _fixed_mask(auto, word) -> int:
    """Bitmask of the letters fixed by every state of ``word``."""
    fx = (1 << auto.alphabet_size) - 1
    for s in word:
        fx &= auto._fix_bits[s]
        if not fx:
            break
    return fx


def common_fixed_letter(auto: Automaton, word: Sequence[int]) -> Optional[int]:
    """Smallest letter fixed by every state of the word, or None."""
    fx = _fixed_mask(auto, check_state_word(auto, word))
    return (fx & -fx).bit_length() or None


def strip_fixed_letter(letters: Sequence[int], letter: int) -> tuple:
    """Order-preserving removal of every occurrence of ``letter``."""
    return tuple(x for x in letters if x != letter)


def fixed_block_count(auto: Automaton, word: Sequence[int]) -> int:
    """Minimal number of consecutive blocks whose states share a fixed
    letter.  Greedy longest-block is optimal here: any subword of a
    feasible block is feasible."""
    w = check_state_word(auto, word)
    if not w:
        return 0
    count = 1
    fx = (1 << auto.alphabet_size) - 1
    for s in w:
        b = auto._fix_bits[s]
        if not b:
            raise AutomatonError(
                f"state {auto.states[s]!r} fixes no letter; no block partition exists"
            )
        if fx & b:
            fx &= b
        else:
            count += 1
            fx = b
    return count


# ---------------------------------------------------------------------------
# Letter-relabeling symmetries.

_SYMMETRY_SEARCH_BUDGET = 200_000


def automaton_symmetries(auto: Automaton) -> tuple:
    """State permutations arising from machine automorphisms that permute
    letters; includes the identity.  The survey uses these for orbit
    reduction, which preserves depth and section counts because an
    automorphism conjugates the whole action.

    Falls back to the identity alone when the alphabet is too large or the
    :func:`_state_maps` searches, one per letter permutation, give up (the
    reduction is then simply weaker).
    """
    m = auto.alphabet_size
    identity = tuple(range(len(auto.states)))
    if m > 8:
        return (identity,)
    by_row = _states_by_row(auto)
    found = {identity}
    budget = _SYMMETRY_SEARCH_BUDGET
    for pi in itertools.permutations(range(m)):
        cands = _symmetry_candidates(auto._emit0, by_row, pi)
        if cands is not None:
            budget = _state_maps(auto, cands, auto._next, pi, budget, found)
            if budget is None:
                return (identity,)
    return tuple(sorted(found))


def _states_by_row(auto):
    """The states of ``auto`` per output row, each list ascending."""
    by_row = {}
    for t, row in enumerate(auto._emit0):
        by_row.setdefault(row, []).append(t)
    return by_row


def _symmetry_candidates(emit0, by_row, pi):
    """Per state s, the states t that can stand in for s under the letter
    permutation ``pi``, ascending: those with emit0[t][pi[c]] equal to
    pi[emit0[s][c]] for every letter c, that is, whose output row is s's
    conjugated by ``pi``.  ``by_row`` maps each output row to its states.
    None when some state has no candidate."""
    inverse = sorted(range(len(pi)), key=pi.__getitem__)
    cands = []
    for row in emit0:
        cs = by_row.get(tuple(pi[row[c]] for c in inverse))
        if cs is None:
            return None
        cands.append(cs)
    return cands


def _state_maps(auto, cands, nxt_from, pi, budget, found, first=False) -> Optional[int]:
    """Add to ``found`` the isomorphisms onto ``auto`` that relabel letters
    by ``pi``, from a machine on the same states with next-state table
    ``nxt_from`` and the output rows that gave ``cands``
    (:func:`_symmetry_candidates`): the state permutations sigma with
    sigma(s) in cands[s] and sigma(nxt_from[s][c]) = next(sigma(s), pi[c])
    for every state s and letter c.  With ``first``, stop at the first.

    A backtracking search picks sigma(s) for the states with the fewest
    candidates first.  It tries an unused candidate only when it agrees
    with the picks already made for s's successors, and checks each
    complete map whole.  Returns what is left of ``budget`` after the
    nodes it entered, or None when it gives up: past ``budget`` nodes, or
    past Python's recursion limit, as it recurses once per state."""
    k, m, nxt = len(cands), auto.alphabet_size, auto._next
    order = sorted(range(k), key=lambda s: len(cands[s]))
    sigma, used, nodes = [None] * k, [False] * k, 0

    def bt(idx):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return True  # stop: the search gives up below
        if idx == k:
            if all(sigma[nxt_from[s][c]] == nxt[sigma[s]][pi[c]]
                   for s in range(k) for c in range(m)):
                found.add(tuple(sigma))
                return first
            return False
        s = order[idx]
        for t in cands[s]:
            if used[t]:
                continue
            for c in range(m):
                u = sigma[nxt_from[s][c]]
                if u is not None and u != nxt[t][pi[c]]:
                    break
            else:
                sigma[s] = t
                used[t] = True
                if bt(idx + 1):
                    return True
                sigma[s] = None
                used[t] = False
        return False

    try:
        bt(0)
    except RecursionError:
        return None
    return None if nodes > budget else budget - nodes


def inverse_states(auto: Automaton) -> Optional[tuple]:
    """A permutation iota of the states of an invertible machine with
    iota(s) acting as s^-1, or None when none is found.

    iota(s) emits the inverse of s's output row and, on reading s(x),
    moves to iota(next(s, x)).  By induction on the input, iota(s) then
    undoes s, and the state word iota(reversed(w)) acts as w^-1 (see
    :func:`survey`).  On Hanoi machines iota is the identity.

    Those two equations say that iota is an isomorphism onto the machine,
    letters held fixed, from its inverse machine, in which state s reads
    s(x), emits x and moves to next(s, x).  So iota is the first map that
    :func:`_state_maps` finds on the inverse machine's tables with pi the
    identity.  An isomorphism maps do-nothing states, which loop on every
    letter and emit it, to do-nothing states, so iota keeps words free of
    them.  The answer is None also when the search gives up, past
    ``_SYMMETRY_SEARCH_BUDGET`` nodes or Python's recursion limit."""
    if not auto.is_invertible:
        return None
    letters = tuple(range(auto.alphabet_size))
    inverse = [sorted(letters, key=row.__getitem__) for row in auto._emit0]
    cands = _symmetry_candidates(inverse, _states_by_row(auto), letters)
    if cands is None:
        return None
    nxt_inverse = [[row[x] for x in inv] for row, inv in zip(auto._next, inverse)]
    found = set()
    if _state_maps(auto, cands, nxt_inverse, letters, _SYMMETRY_SEARCH_BUDGET, found,
                   first=True) is None:
        return None
    return found.pop() if found else None


def commuting_states(auto: Automaton, allowed: Sequence[int]) -> Optional[tuple]:
    """Per state, the bitmask of the other states in ``allowed`` that
    commute with it; None when none do or the machine has more than 64
    states.  The relation is the largest set of ordered pairs (p, q) over
    ``allowed``, p = q included, such that for every letter x, p(q(x)) =
    q(p(x)), next(p, q(x)) = next(p, x), next(q, p(x)) = next(q, x), and
    the sections (next(p, x), next(q, x)) hold a do-nothing state or are a
    pair of the relation again; it is found by dropping failing pairs until
    none fails.  For p = q only the second condition binds: next(p, p(x)) =
    next(p, x).  p and q commute when p != q and (p, q) is in the relation."""
    k, nxt, emit0, trivials = len(auto.states), auto._next, auto._emit0, auto._trivials
    if k > 64:
        return None
    letters = range(auto.alphabet_size)
    pairs = {
        (p, q) for p in allowed for q in allowed
        if all(emit0[p][emit0[q][x]] == emit0[q][emit0[p][x]]
               and nxt[p][emit0[q][x]] == nxt[p][x] and nxt[q][emit0[p][x]] == nxt[q][x]
               for x in letters)
    }
    fine = lambda p, q: p in trivials or q in trivials or (p, q) in pairs
    while bad := {(p, q) for p, q in pairs if not all(fine(nxt[p][x], nxt[q][x]) for x in letters)}:
        pairs -= bad
    masks = [0] * k
    for p, q in pairs:
        if p != q:
            masks[p] |= 1 << q
    return tuple(masks) if any(masks) else None


def orbit_count(allowed: Sequence[int], sigmas: Sequence[tuple], length: int) -> int:
    """Number of orbits of length-``length`` words over ``allowed`` states
    under the given permutation group, by averaging fixed-point counts."""
    total = 0
    for sg in sigmas:
        fixed = sum(1 for s in allowed if sg[s] == s)
        total += fixed**length
    return total // len(sigmas)


# ---------------------------------------------------------------------------
# Exhaustive survey of depth / section growth.

WORD_BUDGET = 200_000_000

# The shortest interval between two reports of a survey scan's progress.
TASK_REPORT_SECONDS = 10


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the default word budget, or a
    closure exceeds the section budget (``_kernel.SECTION_BUDGET``)."""


@dataclass(frozen=True)
class GrowthRow:
    """Maxima over all words of length <= n, plus scan bookkeeping.

    ``words_examined`` and ``orbits`` are both the number of words of
    length n counted up to the machine's letter symmetries
    (:func:`orbit_count`).  ``closures`` is the number of closures the
    scan computed at length n, which the reductions make smaller; None for
    a row read from a checkpoint without a scan."""

    n: int
    depth: int
    depth_witness: tuple
    theta: int
    theta_witness: tuple
    words_examined: int
    orbits: int
    closures: Optional[int]
    seconds: float


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple

    def depths(self) -> list:
        return [row.depth for row in self.rows]

    def thetas(self) -> list:
        return [row.theta for row in self.rows]


def _extend_active(active, s):
    """Filter the symmetries still tying on the extended prefix; None when
    some symmetry maps the extension strictly lower (prefix not canonical)."""
    keep = []
    for sg in active:
        c = sg[s]
        if c < s:
            return None
        if c == s:
            keep.append(sg)
    return keep


def _forbid(comm, forbid, s):
    """The forbidden set once s is appended to a word whose set is
    ``forbid`` (``mg_scan``'s rule): no state may end a factor b u a with
    a < b and a commuting with b and with all of u."""
    return comm[s] & (forbid | ((1 << s) - 1)) if comm else 0


def _canonical_prefixes(allowed, sigmas, length, comm=None):
    """Every canonical word of ``length`` in lex order (``allowed`` order),
    with the symmetries still tying on it; with the masks ``comm`` of
    :func:`commuting_states`, only words that are the lex-least order of
    their commuting letters."""
    words = [((), tuple(sigmas), 0)]  # (word, tying symmetries, forbidden set)
    for _ in range(length):
        words = [
            (word + (s,), tuple(sub), _forbid(comm, forbid, s))
            for word, active, forbid in words
            for s in allowed
            if not forbid >> s & 1 and (sub := _extend_active(active, s)) is not None
        ]
    return [(word, active) for word, active, _ in words]


def _scan_lengths(allowed, walk, group, iota, n_max, split=0, jobs=1, progress=None, every=None,
                  *, comm=None, mirror=True):
    """The reference twin of ``_kernel.compiled_scan``: the canonical DFS
    of ``mg_scan``'s ``rec`` from the empty word to length ``n_max``, run on
    this thread, as one worker that claims every subtree.  Per length 1 ..
    ``n_max``, ``(closures computed, best depth, witness, best count,
    witness)``.  Children come first, and each node with mirror children
    keeps the words below it in a scope of its own, one list ``[depth,
    witness, count, witness]`` per length, where the mirrors are folded
    (:func:`_fold_scope`).  ``group`` is the symmetries without the
    identity; ``walk`` gives the closure record of a word
    (``_walk_record``), whose child table is the closure automaton that
    ``mg_scan`` builds.  With an ``iota``, words of length ``n_max`` pass
    the reversal test with the maps sigma o iota, sigma in ``group`` or the
    identity; ``comm`` as in :func:`_canonical_prefixes`; ``mirror`` folds
    mirror children and skips the subtrees of twins (see :func:`survey`).
    As in ``mg_scan``, a census first runs the DFS down to depth ``split``
    only, to count the subtrees there; ``progress`` then gets (subtrees
    scanned, subtrees to scan) each time a subtree ends.  ``jobs`` and
    ``every`` are unused."""
    maps = () if iota is None else (iota, *(tuple(sg[s] for s in iota) for sg in group))
    word, done, subtrees = [], 0, 0

    def record(scope, d, t):
        i = len(word) - 1
        examined[i] += 1
        best = scope[i]
        if d > best[0]:
            best[0:2] = d, tuple(word)
        if t > best[2]:
            best[2:4] = t, tuple(word)

    def dfs(table, active, forbid, scope):
        nonlocal done, subtrees
        depth, kids = len(word), []
        if census and depth == split:
            subtrees += 1
            return
        descended = set()  # (automaton, tying symmetries, forbidden set) of each child gone below
        for s in allowed:
            sub = None if forbid >> s & 1 else _extend_active(active, s)
            if sub is None:
                continue
            word.append(s)
            if depth + 1 < n_max:
                rec, after = walk(tuple(word)), _forbid(comm, forbid, s)
                key = (tuple(rec.children), tuple(sub), after)
                if mirror and len(sub) == len(active) and after == forbid and rec.children == table:
                    kind = "mirror"
                elif mirror and depth + 2 < n_max and key in descended:
                    kind = "twin"
                else:
                    kind = "descend"
                    descended.add(key)
                kids.append((s, rec, sub, after, kind))
            elif not any(t[s] <= word[0] and [t[c] for c in reversed(word)] < word for t in maps):
                rec = walk(tuple(word))  # a leaf: recorded at once, and kids stays empty
                record(scope, rec.depth, len(rec.nodes))
            word.pop()
        mirrors = [s for s, *_, kind in kids if kind == "mirror"]
        outer = scope
        if mirrors:
            scope = [[-1, None, -1, None] for _ in outer]
        for s, rec, *_ in kids:
            word.append(s)
            record(scope, rec.depth, len(rec.nodes))
            word.pop()
        for s, rec, sub, after, kind in kids:
            if kind == "descend":
                word.append(s)
                dfs(rec.children, sub, after, scope)
                word.pop()
        if mirrors:
            _fold_scope(scope[depth:], mirrors, depth)
            for best, found in zip(outer[depth:], scope[depth:]):
                for j in (0, 2):
                    if found[j] > best[j]:
                        best[j : j + 2] = found[j : j + 2]
        if depth == split:
            done += 1
            if progress:
                progress(done, subtrees)

    for census in (True, False):  # the census, then the scan, each from cleared results
        examined = [0] * n_max
        scope = [[-1, None, -1, None] for _ in examined]
        dfs(walk(()).children, group, 0, scope)
    return tuple(
        (ex, d, dw, t, tw) if d >= 0 else (0, -1, None, -1, None)
        for ex, (d, dw, t, tw) in zip(examined, scope)
    )


def _fold_scope(scope, mirrors, at):
    """Fold the subtrees of the ``mirrors`` children of a node v of length
    ``at``, as ``mg_scan``'s ``fold`` does: ``scope[i]`` holds the best
    ``[depth, witness, count, witness]`` of the words below v of length
    ``at + 1 + i``.  The best below a mirror c = v x at length L is the
    best below v at length L - 1 with x inserted at ``at``; a tie goes to
    the lex-smaller word."""
    for base, best in zip(scope, scope[1:]):
        for j in (0, 2):
            for x in mirrors:
                w = base[j + 1][:at] + (x,) + base[j + 1][at:]
                if base[j] > best[j] or (base[j] == best[j] and w < best[j + 1]):
                    best[j : j + 2] = base[j], w


def _merge_round(results):
    examined = 0
    best_d = -1
    best_dw = None
    best_t = -1
    best_tw = None
    for ex, d, dw, t, tw in results:
        examined += ex
        if d > best_d or (d == best_d and dw is not None and (best_dw is None or dw < best_dw)):
            best_d, best_dw = d, dw
        if t > best_t or (t == best_t and tw is not None and (best_tw is None or tw < best_tw)):
            best_t, best_tw = t, tw
    return examined, best_d, best_dw, best_t, best_tw


def _fingerprint(auto, flags) -> str:
    blob = format_automaton(auto) + json.dumps(flags, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_checkpoint(path, fingerprint, allowed):
    """Rounds recorded in ``path`` by a survey over the states ``allowed``.
    Every record ends with a newline, so a final line without one was torn
    by a crash mid-append: it is dropped and the file truncated back to the
    last complete record, and that row is scanned again.  A damaged line
    elsewhere is an error: a header that is not an object with a string
    ``fingerprint``, or a record that :func:`_is_record` refuses."""
    rows = {}
    path = Path(path)
    if not path.exists():
        return rows
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    lines = [(i, ln) for i, ln in enumerate(data[:end].splitlines(), 1) if ln.strip()]
    for i, ln in lines:
        try:
            rec = json.loads(ln)
        except ValueError:
            rec = None
        if i == lines[0][0]:
            if type(rec) is not dict or type(rec.get("fingerprint")) is not str:
                raise AutomatonError(f"checkpoint {path}, line {i}: not a checkpoint header")
            if rec["fingerprint"] != fingerprint:
                raise AutomatonError(
                    f"checkpoint {path} belongs to a different automaton or option set"
                )
        elif _is_record(rec, allowed):
            rows[rec["n"]] = rec
        else:
            raise AutomatonError(f"checkpoint {path}, line {i}: not a record of a survey row")
    if end < len(data):
        os.truncate(path, end)
    return rows


_RECORD_KEYS = {"n", "depth", "depth_witness", "theta", "theta_witness", "examined", "orbits",
                "seconds"}


def _is_record(rec, allowed) -> bool:
    """Whether ``rec`` has the keys and value types of a record that
    :func:`survey` writes: integers ``n``, ``examined`` and ``orbits``, a
    number ``seconds``, and each maximum an integer with a witness of ``n``
    states, each in ``allowed``, or both None for a length without words."""
    if type(rec) is not dict or rec.keys() != _RECORD_KEYS:
        return False
    is_int = lambda value: type(value) is int
    return (
        all(is_int(rec[key]) for key in ("n", "examined", "orbits"))
        and type(rec["seconds"]) in (int, float)
        and all((rec[v] is None and rec[w] is None)
                or (is_int(rec[v]) and type(rec[w]) is list and len(rec[w]) == rec["n"]
                    and all(is_int(s) and s in allowed for s in rec[w]))
                for v, w in (("depth", "depth_witness"), ("theta", "theta_witness")))
    )


def _append_checkpoint(path, fingerprint, recs):
    """Append the records ``recs`` to ``path`` in one write, after the
    header when the file is empty: a torn first append then leaves no
    header without records behind."""
    text = "".join(json.dumps(rec) + "\n" for rec in recs)
    with open(path, "a") as fh:
        if fh.tell() == 0:
            text = json.dumps({"fingerprint": fingerprint}) + "\n" + text
        fh.write(text)


def survey(
    auto: Automaton,
    n_max: int,
    *,
    exclude_trivial: bool = True,
    symmetry: bool = True,
    reversal: bool = True,
    commutation: bool = True,
    mirror: bool = True,
    jobs: int = 1,
    long_run: bool = False,
    checkpoint=None,
    progress: Optional[Callable] = None,
) -> GrowthReport:
    """Exact maxima of depth and section count over all words of length
    <= ``n_max``, one row per length, with witnesses.

    One canonical DFS to length ``n_max`` gives every row: each word it
    reaches counts toward its own length.  It runs over canonical orbit
    representatives of words without do-nothing states unless the
    reductions are switched off; both reductions preserve the maxima.

    ``reversal`` adds a third reduction at length ``n_max`` when the
    machine has an :func:`inverse_states` map iota.  The state word
    iota(reversed(w)) acts as w^-1, and its section at y is
    iota(reversed(w|v)) with v = w^-1(y), so iota o reversed maps the
    sections of w at each input length one to one onto those of
    iota(reversed(w)): depth and section count agree.  A symmetry sigma
    keeps them too.  So a word w of length ``n_max`` is passed over when
    some sigma in the symmetry group or the identity makes
    sigma(iota(reversed(w))) lex-smaller than w.  Nothing is lost: let u
    be the lex-least word reachable from w by symmetries and iota o
    reversed (iota and the symmetries keep do-nothing states out).  Every
    such word has w's depth and count, and none is smaller than u, so u is
    canonical and not passed over.  When w is the lex-least word of the
    best value, u = w, so the witnesses stay the same.  A word shorter than
    ``n_max`` is a prefix the DFS goes on from, so it is never passed over;
    the scan counts only the closures it computes (``closures``).

    ``commutation`` prunes the DFS with :func:`commuting_states`.  When p
    and q commute, then by induction on the input, the section of ...pq...
    at each input is that of ...qp... with the two positions swapped, and
    the pair of sections there holds a do-nothing state or is a pair of
    the relation again: the conditions on (p', q') say that both orders
    read and emit alike and step to the swapped pair.  For an equal pair
    (t, t) the swap keeps only when next(t, t(x)) = next(t, x) for every
    letter x, which is why the relation holds such pairs too.  So the swap
    maps the sections of each input length one to one, and both words have
    the same depth and count.  A word is the lex-least of
    its class under such swaps iff it has no factor b u a with a < b and a
    commuting with b and all of u (Anisimov and Knuth, 1979); the DFS keeps
    the states that would end such a factor and never appends one.  The
    lex-least word u of a class under symmetries, swaps and, at ``n_max``,
    iota o reversed passes all three tests (prefixes of a lex-least word
    are lex-least), and the whole class has u's depth and count, so the
    values and witnesses stay as above.

    ``mirror`` folds whole subtrees of the DFS instead of scanning them.
    The scan builds the closure of v s from the closure automaton of v
    (its child table) and nothing else, and which states the DFS appends
    to a word depends only on the symmetries still tying on it and its
    forbidden set.  Call a child c = v x of a DFS node v, shorter than
    ``n_max``, a mirror when its closure automaton, its tying symmetries
    (every symmetry tying on v fixes x) and its forbidden set are v's.
    Leaving the reversal test aside, by induction on u the words below c
    are then exactly c u for the words v u below v, and c u has v u's
    closure automaton, so its depth and count.  So the scan records c but
    does not descend into it.  Once v's subtree is done, the best word of
    each length L below c is the best of length L - 1 below v with x
    inserted after v, for L = |v| + 2 .. ``n_max`` in turn (the words
    below v of length L - 1 include those folded there), a tie going to
    the lex-smaller word.  Words v u shorter than ``n_max`` never meet the
    reversal test, so the fold takes in all the words c u, also some of
    length ``n_max`` that the test would pass over.  Each of those has
    the depth and count of a lex-smaller word that the scan keeps, so the
    values and witnesses stay as above, and only ``closures`` drops.

    ``mirror`` also skips the subtrees of twin children.  Call a child
    c = v t of a DFS node v, shorter than ``n_max`` - 1, a twin when an
    earlier child v s (s before t in ``allowed``) that the scan descends
    into has c's closure automaton, tying symmetries (each symmetry tying
    on v fixes both s and t or neither) and forbidden set.  As above, the
    words below c are then v t u for the words v s u below v s, and v t u
    has v s u's closure automaton, so its depth and count, while v s u is
    lex-smaller.  So the lex-least best word of each length below any node
    is never below a twin, and the scan records c but does not descend
    into it: the values, witnesses and folds stay as above, and only
    ``closures`` drops.  A child with a mirror's automaton, tying
    symmetries and forbidden set is a mirror itself, so twins are only
    looked for among the children descended into; and not one level
    above the leaves, where a twin saves at most one row of leaf walks.
    ``mirror=False`` is the unreduced twin the tests compare with.

    Each of the compiled scan's ``jobs`` worker threads runs the whole
    DFS, but descends below a node of the split length only when it
    claims that node's subtree, so each subtree there is scanned once.
    Every worker walks and records the words above the split, and folds
    every mirror on its own results; the survey merges the workers'
    results per length.  That gives the fold of the merged results:
    inserting x at a fixed position keeps the lex order of words of one
    length, so a fold commutes with the per-length merge (the larger value
    wins, and a tie goes to the lex-smaller word), and a word that several
    workers record merges as itself.  Within one worker a witness stays
    lex-least as in a serial scan, since a scope holds only words that
    come later in DFS order.  Only one worker counts the words above the
    split, so ``closures`` does not depend on ``jobs`` either, and results
    are identical for any ``jobs``.  Twins are found alike by every
    worker, so the claims stay in step.  The Python scan runs the DFS
    whole on this thread.  Before its first claim, one worker (and the
    Python scan) runs the DFS down to the split length only and counts the
    nodes there, none of them below a mirror or twin.  So a scan that runs
    for long reports on stderr the subtrees scanned so far out of the
    subtrees to scan (``# scan tasks=k/N seconds=S``).

    ``checkpoint`` names a file that records each row once the scan ends.
    A later run keeps the rows it holds; when it must scan for longer
    ones, the rows it recomputes must equal the recorded ones, or it
    raises :class:`AutomatonError`.  Every row the scan computes carries
    the scan's wall time as ``seconds``.  ``progress`` is called with the
    cumulative :class:`GrowthRow` of each length in turn, once the scan
    ends.
    """
    if not auto.is_invertible:
        raise AutomatonError("growth surveys need an invertible automaton")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    # More workers than CPUs only add threads: the scan splits by prefix,
    # so the rows are the same for any worker count.
    jobs = min(max(1, int(jobs)), os.cpu_count() or 1)

    trivials = auto._trivials if exclude_trivial else ()
    allowed = tuple(s for s in range(len(auto.states)) if s not in trivials)

    total = sum(len(allowed) ** k for k in range(1, n_max + 1))
    if total > WORD_BUDGET and not long_run:
        raise BudgetError(
            f"scanning lengths up to {n_max} covers {total} words before reduction; "
            "set long_run=True (--long-run) to proceed"
        )

    sigmas_all = automaton_symmetries(auto) if symmetry else (tuple(range(len(auto.states))),)
    identity = tuple(range(len(auto.states)))
    sigmas = tuple(sg for sg in sigmas_all if sg != identity)
    iota = inverse_states(auto) if reversal else None
    comm = commuting_states(auto, allowed) if commutation else None

    # n_max stays out of the fingerprint: per-length rows from a shorter or
    # interrupted run remain valid when the bound is raised.
    flags = {
        "exclude_trivial": exclude_trivial,
        "symmetry": symmetry,
        "include_root_section": True,  # always; kept so existing checkpoints still resume
    }
    fingerprint = _fingerprint(auto, flags)
    done = _load_checkpoint(checkpoint, fingerprint, allowed) if checkpoint else {}

    # The compiled twin of _scan_lengths when it loads and n_max <= 64; the
    # Python scan, its reference, holds the GIL and runs serially.
    scan = _kernel_module().compiled_scan(auto._next, auto._emit0, allowed, sigmas, iota, n_max,
                                          comm, mirror)
    if scan is None:
        walk = functools.partial(_walk_record, auto)
        scan = functools.partial(_scan_lengths, allowed, walk, sigmas, iota, n_max, comm=comm,
                                 mirror=mirror)

    scanned, closures = {}, {}
    if any(n not in done for n in range(1, n_max + 1)):
        t0 = time.perf_counter()
        merged = _scan_all(scan, allowed, sigmas, comm, jobs, n_max)
        seconds = time.perf_counter() - t0
        for n, (computed, d, dw, t, tw) in merged.items():
            closures[n] = computed
            orbits = orbit_count(allowed, sigmas_all, n)
            # "examined" is the orbit count, which is what the scan counted
            # before the reversal test: checkpoints keep their bytes.
            scanned[n] = rec = {
                "n": n,
                "depth": d if dw is not None else None,
                "depth_witness": list(dw) if dw is not None else None,
                "theta": t if tw is not None else None,
                "theta_witness": list(tw) if tw is not None else None,
                "examined": orbits,
                "orbits": orbits,
                "seconds": seconds,
            }
            # The scan recomputes the rows the checkpoint holds: a free check.
            if n in done and _values(done[n]) != _values(rec):
                raise AutomatonError(f"checkpoint {checkpoint} disagrees with the scan at n={n}")
        if checkpoint:
            _append_checkpoint(checkpoint, fingerprint,
                               [rec for n, rec in sorted(scanned.items()) if n not in done])

    # The empty word has one section (itself) at depth 0; it seeds the
    # cumulative maxima so degenerate machines still report sane rows.
    best_d = (0, 0, ())
    best_t = (1, 0, ())
    rows = []
    for n in range(1, n_max + 1):
        rec = done[n] if n in done else scanned[n]
        if rec["depth_witness"] is not None and rec["depth"] > best_d[0]:
            best_d = (rec["depth"], n, tuple(rec["depth_witness"]))
        if rec["theta_witness"] is not None and rec["theta"] > best_t[0]:
            best_t = (rec["theta"], n, tuple(rec["theta_witness"]))
        row = GrowthRow(
            n=n,
            depth=best_d[0],
            depth_witness=best_d[2],
            theta=best_t[0],
            theta_witness=best_t[2],
            words_examined=rec["examined"],
            orbits=rec["orbits"],
            closures=closures.get(n),
            seconds=rec["seconds"],
        )
        rows.append(row)
        if progress:
            progress(row)

    return GrowthReport(rows=tuple(rows))


def _values(rec):
    """A checkpoint record without its wall time."""
    return {key: value for key, value in rec.items() if key != "seconds"}


def _scan_all(scan, allowed, sigmas, comm, jobs, n_max):
    """Merged ``(closures computed, best depth, witness, best count,
    witness)`` of every length 1 .. ``n_max``, from one canonical DFS.  The
    scan's workers claim its subtrees at the split length, which is chosen
    by counting canonical prefixes.  A scan on one thread is split too: a
    Ctrl-C then waits for the running subtree, not for the whole scan.
    Every :data:`TASK_REPORT_SECONDS` at most, the subtrees scanned so far
    and the subtrees to scan, as the scan counts them, are reported on
    stderr; once a line is out, so is the one with every subtree done."""
    t0 = last = time.perf_counter()
    shown = None  # the subtrees done on the last line, None before the first
    # The shortest split with 8 prefixes a thread, but at most 4 letters.
    for split in range(min(4, n_max - 1) + 1 if allowed else 1):
        if len(_canonical_prefixes(allowed, sigmas, split, comm)) >= 8 * jobs:
            break

    def progress(done, subtrees):
        nonlocal last, shown
        now = time.perf_counter()
        if now - last >= TASK_REPORT_SECONDS or shown is not None and shown < done == subtrees:
            print(f"# scan tasks={done}/{subtrees} seconds={now - t0:.3f}",
                  file=sys.stderr, flush=True)
            last, shown = now, done

    return dict(enumerate(scan(split, jobs, progress, TASK_REPORT_SECONDS), 1))


def render_growth_csv(report: GrowthReport, auto: Automaton) -> str:
    """CSV artifact for a survey; witness words use dotted state names.

    The seconds column is left empty, so that repeated runs of the same
    configuration, at any ``jobs``, produce byte-identical output.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["n", "depth", "theta", "depth_witness", "theta_witness", "words_examined", "seconds"]
    )
    for row in report.rows:
        writer.writerow(
            [
                row.n,
                row.depth,
                row.theta,
                format_state_word(auto, row.depth_witness),
                format_state_word(auto, row.theta_witness),
                row.words_examined,
                "",
            ]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Common-fixed-letter thresholds for sections at long inputs.


def strict_log2(n: int) -> int:
    """Least integer strictly greater than log2(n); needs n >= 1."""
    if n < 1:
        raise ValueError("defined for positive integers only")
    return int(n).bit_length()


def threshold_bound(pegs: int, length: int) -> int:
    """Poly-log bound (3*4*...*pegs)^2-style for fixing thresholds:
    product of i^2 for i in 3..pegs, times strict_log2(length)^(pegs-2)."""
    if pegs < 3:
        raise ValueError("needs at least 3 letters")
    c = 1
    for i in range(3, pegs + 1):
        c *= i * i
    return c * strict_log2(length) ** (pegs - 2)


def fixing_threshold(auto: Automaton, word: Sequence[int]) -> Optional[int]:
    """Least t such that every section of ``word`` at every input of length
    >= t has a letter fixed by all its states.  None when sections without
    a common fixed letter recur at unboundedly long inputs.

    A node v of the closure graph is a section at input length L exactly
    when a path of L steps leads from node 0, which reaches every node, to
    v.  So a node fixing no letter recurs at unboundedly long inputs exactly
    when it lies below a cycle (None); else t is one past the longest path
    to such a node, 0 when there is none.  The kernel runs both in one call.
    """
    kernel = _kernel_module().compiled_closure(auto)
    if kernel is None:
        return _path_threshold(_walk_record(auto, word), auto.alphabet_size)
    return kernel.threshold(word)


def _path_threshold(rec: _Closure, m: int) -> Optional[int]:
    """The longest-path pass of :func:`fixing_threshold`, the twin of
    ``longest_path`` in ``mg_threshold``: peeling nodes of in-degree 0 from
    node 0 (Kahn) leaves exactly those below a cycle, with in-degree left,
    and its order gives the longest paths."""
    children, indegree, dist = rec.children, [0] * len(rec.fixed), [0] * len(rec.fixed)
    for c in children:
        indegree[c] += 1
    order = [] if indegree[0] else [0]
    for u in order:  # grows as nodes are peeled
        for c in children[u * m : u * m + m]:
            dist[c] = max(dist[c], dist[u] + 1)
            indegree[c] -= 1
            if not indegree[c]:
                order.append(c)
    bad = [v for v, fx in enumerate(rec.fixed) if not fx]
    if any(indegree[v] for v in bad):
        return None
    return max((dist[v] + 1 for v in bad), default=0)


@dataclass(frozen=True)
class ThresholdSample:
    length: int
    word: tuple
    t_star: Optional[int]
    bound: int
    passed: bool


@dataclass(frozen=True)
class ThresholdReport:
    samples: tuple
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.samples)

    def max_by_length(self) -> dict:
        """Empirical maximum threshold per word length; None when any sample
        of that length is unbounded."""
        out = {}
        for s in self.samples:
            cur = out.get(s.length, -1)
            out[s.length] = None if cur is None or s.t_star is None else max(cur, s.t_star)
        return out


def threshold_survey(
    auto: Automaton,
    lengths: Sequence[int],
    samples: int,
    seed: int = 0,
) -> ThresholdReport:
    """Sample random words of each length over the non-trivial states and
    measure their fixing thresholds against :func:`threshold_bound`."""
    if samples < 1:
        raise ValueError("need at least one sample per length")
    allowed = [s for s in range(len(auto.states)) if s not in auto._trivials]
    if not allowed:
        raise AutomatonError("all states act trivially; nothing to sample")
    rng = random.Random(seed)
    out = []
    for n in lengths:
        if n < 1:
            raise ValueError("word lengths must be positive")
        bound = threshold_bound(auto.alphabet_size, n)
        # One draw of every letter of the length's words: the stream of one
        # draw per word.
        letters = rng.choices(allowed, k=n * samples)
        for i in range(0, n * samples, n):
            word = tuple(letters[i : i + n])
            t_star = fixing_threshold(auto, word)
            out.append(
                ThresholdSample(
                    length=n,
                    word=word,
                    t_star=t_star,
                    bound=bound,
                    passed=t_star is not None and t_star <= bound,
                )
            )
    return ThresholdReport(samples=tuple(out), seed=seed)


def render_threshold_csv(report: ThresholdReport, auto: Automaton) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "word", "t_star", "bound", "pass"])
    for s in report.samples:
        writer.writerow(
            [
                s.length,
                format_state_word(auto, s.word),
                "inf" if s.t_star is None else s.t_star,
                s.bound,
                "true" if s.passed else "false",
            ]
        )
    return buf.getvalue()
