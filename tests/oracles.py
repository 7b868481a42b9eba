"""Deliberately naive reference implementations used to cross-check the
library.  Everything here works straight off the transition/output tables
with the most literal algorithm available, trading speed for obviousness.
"""

from __future__ import annotations

import itertools
from collections import deque

from hypothesis import strategies as st

from mealygroup import Automaton


def state_image(auto, state, letters):
    """Image of a letter word under a single state, by walking the tables."""
    out = []
    s = state
    for x in letters:
        out.append(auto._emit0[s][x - 1] + 1)
        s = auto._next[s][x - 1]
    return tuple(out)


def state_section(auto, state, letters):
    s = state
    for x in letters:
        s = auto._next[s][x - 1]
    return s


def word_image(auto, word, letters):
    """Right-to-left composition of single-state images."""
    v = tuple(letters)
    for s in reversed(tuple(word)):
        v = state_image(auto, s, v)
    return v


def word_section(auto, word, letters):
    """Position-by-position definition: position i is sectioned at the
    image of the input under the states strictly to its right."""
    word = tuple(word)
    out = []
    for i, s in enumerate(word):
        suffix_image = word_image(auto, word[i + 1 :], letters)
        out.append(state_section(auto, s, suffix_image))
    return tuple(out)


def all_letter_words(m, length):
    return itertools.product(range(1, m + 1), repeat=length)


def sections_at_length(auto, word, length):
    return {word_section(auto, word, v) for v in all_letter_words(auto.alphabet_size, length)}


def first_seen_levels(auto, word):
    """Sections grouped by the input length at which each first appears,
    grown until one extra length adds nothing new."""
    levels = [{tuple(word)}]
    seen = {tuple(word)}
    length = 0
    while True:
        length += 1
        fresh = sections_at_length(auto, word, length) - seen
        if not fresh:
            return levels
        seen |= fresh
        levels.append(fresh)


def brute_depth_and_count(auto, word):
    levels = first_seen_levels(auto, word)
    return len(levels) - 1, sum(len(lvl) for lvl in levels)


def brute_identity(auto, word, max_len):
    """Word acts as identity on every input of length <= max_len."""
    m = auto.alphabet_size
    for length in range(max_len + 1):
        for v in all_letter_words(m, length):
            if word_image(auto, word, v) != v:
                return False
    return True


def block_has_common_fixed(auto, block):
    m = auto.alphabet_size
    return any(all(auto._emit0[s][x] == x for s in block) for x in range(m))


def brute_min_blocks(auto, word):
    """Minimal consecutive-block partition with a common fixed letter per
    block, by exhausting cut-point subsets."""
    word = tuple(word)
    n = len(word)
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0,) + cuts + (n,)
            blocks = [word[bounds[i] : bounds[i + 1]] for i in range(k)]
            if all(block_has_common_fixed(auto, b) for b in blocks):
                return k
    raise AssertionError("some single state fixes no letter")


def legal_single_moves(pegs, config):
    """Game-model moves: per peg pair, the smallest disk on either peg may
    cross; returns {(position, target peg)} keyed by the resulting config."""
    moves = {}
    for i in range(1, pegs + 1):
        for j in range(i + 1, pegs + 1):
            for pos, peg in enumerate(config):
                if peg == i or peg == j:
                    other = j if peg == i else i
                    new = config[:pos] + (other,) + config[pos + 1 :]
                    moves[new] = (pos, other)
                    break
    return moves


def bfs_config_optimum(pegs, disks, source=1, target=None):
    """Shortest move count between full-tower configurations by BFS over
    the whole configuration graph."""
    if target is None:
        target = pegs
    start = (source,) * disks
    goal = (target,) * disks
    if start == goal:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cfg = queue.popleft()
        d = dist[cfg]
        for new in legal_single_moves(pegs, cfg):
            if new not in dist:
                if new == goal:
                    return d + 1
                dist[new] = d + 1
                queue.append(new)
    raise AssertionError("configuration graph is connected; goal must be reachable")


def explicit_orbit_count(allowed, sigmas, length):
    """Orbit count by materializing every orbit (small cases only)."""
    seen = set()
    orbits = 0
    for word in itertools.product(allowed, repeat=length):
        if word in seen:
            continue
        orbits += 1
        for sg in sigmas:
            seen.add(tuple(sg[s] for s in word))
    return orbits


def brute_symmetries(auto):
    """Every state permutation that some letter permutation turns into a
    machine automorphism, by trying all pairs of permutations."""
    k, m = len(auto.states), auto.alphabet_size
    nxt, emit0 = auto._next, auto._emit0
    found = set()
    for pi in itertools.permutations(range(m)):
        for sigma in itertools.permutations(range(k)):
            if all(
                emit0[sigma[s]][pi[c]] == pi[emit0[s][c]] and sigma[nxt[s][c]] == nxt[sigma[s]][pi[c]]
                for s in range(k)
                for c in range(m)
            ):
                found.add(sigma)
    return found


def brute_inverse_states(auto):
    """Every state permutation iota with iota(s) acting as s^-1 in the
    sense of ``inverse_states``: on reading s(x), iota(s) emits x and moves
    to iota(next(s, x)).  By trying all permutations."""
    k, m = len(auto.states), auto.alphabet_size
    nxt, emit0 = auto._next, auto._emit0
    return {
        iota
        for iota in itertools.permutations(range(k))
        if all(
            emit0[iota[s]][emit0[s][x]] == x and nxt[iota[s]][emit0[s][x]] == iota[nxt[s][x]]
            for s in range(k)
            for x in range(m)
        )
    }


def cycle_machine(k):
    """A 2-letter machine of ``k`` states in one cycle: every state moves to
    the next one, and only state 0 swaps the letters."""
    nxt = [[(s + 1) % k] * 2 for s in range(k)]
    out = [[2, 1]] + [[1, 2]] * (k - 1)
    return Automaton(2, [f"s{s}" for s in range(k)], nxt, out)


def cycles_machine(lengths):
    """A root state r whose letter i leads, output i, into a cycle of the
    i-th of ``lengths`` states; a cycle state steps to the next on every
    letter and outputs x mod m + 1, so it fixes no letter.  The sets of
    sections of (r,) at input lengths 0, 1, ... repeat only after the lcm
    of ``lengths`` steps; (r,) has no fixing threshold."""
    m = len(lengths)
    starts = [1 + sum(lengths[:i]) for i in range(m)]
    names, nxt, out = ["r"], [starts], [list(range(1, m + 1))]
    for i, length in enumerate(lengths):
        for j in range(length):
            names.append(f"c{i}_{j}")
            nxt.append([starts[i] + (j + 1) % length] * m)
            out.append([x % m + 1 for x in range(1, m + 1)])
    return Automaton(m, names, nxt, out)


# The nine cycles of the first nine primes: 101 states, whose sets of
# sections repeat only after 223,092,870 steps.
PRIME_CYCLES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def every_invertible_machine(k, m):
    """Every invertible machine of ``k`` states over ``m`` letters: each
    state's row is a next state per letter and a permutation of the
    letters, in every combination."""
    rows = [(nxt, out) for nxt in itertools.product(range(k), repeat=m)
            for out in itertools.permutations(range(1, m + 1))]
    names = [f"s{i}" for i in range(k)]
    for machine in itertools.product(rows, repeat=k):
        yield Automaton(m, names, [nxt for nxt, _ in machine], [out for _, out in machine])


NO_REDUCTION = {"exclude_trivial": False, "symmetry": False, "reversal": False,
                "commutation": False, "mirror": False}


def rows_differ(auto, n_max):
    """Whether the survey of ``auto`` to ``n_max`` with every reduction and
    the survey with none differ in any row's values or witnesses."""
    from mealygroup import survey

    values = lambda report: [(r.n, r.depth, r.depth_witness, r.theta, r.theta_witness)
                             for r in report.rows]
    return values(survey(auto, n_max)) != values(survey(auto, n_max, **NO_REDUCTION))


# ---------------------------------------------------------------------------
# Random machines for property tests.


@st.composite
def invertible_machines(draw):
    """Small invertible machines of any shape, optionally with a do-nothing
    state last."""
    m = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))
    total = k + draw(st.integers(0, 1))
    nxt = [[draw(st.integers(0, total - 1)) for _ in range(m)] for _ in range(k)]
    out = [[y + 1 for y in draw(st.permutations(range(m)))] for _ in range(k)]
    nxt += [[total - 1] * m] * (total - k)
    out += [list(range(1, m + 1))] * (total - k)
    return Automaton(m, [f"s{i}" for i in range(total)], nxt, out)


@st.composite
def dies_or_stays_machines(draw):
    """Small invertible machines of the Hanoi shape: a do-nothing state
    ``e`` (index 0), and states that on each letter either pass it through
    and stay, or emit some letter and drop to ``e``.  The letters a state
    dies on are permuted among themselves, so every output row is a
    permutation."""
    m = draw(st.integers(2, 4))
    k = draw(st.integers(1, 4))
    nxt = [[0] * m]
    out = [list(range(1, m + 1))]
    for s in range(1, k + 1):
        dies = [x for x in range(m) if draw(st.booleans())]
        image = dict(zip(dies, draw(st.permutations(dies))))
        nxt.append([0 if x in image else s for x in range(m)])
        out.append([image.get(x, x) + 1 for x in range(m)])
    return Automaton(m, ["e"] + [f"s{i}" for i in range(1, k + 1)], nxt, out)


@st.composite
def inverse_closed_machines(draw):
    """A machine from :func:`invertible_machines` plus, for every state s,
    a state ``s'`` that acts as s^-1: it emits the inverse of s's output
    row, and on reading s(x) it moves to next(s, x)'.  The states come in a
    drawn order."""
    auto = draw(invertible_machines())
    k, m = len(auto.states), auto.alphabet_size
    nxt = [list(row) for row in auto._next]
    out = [list(row) for row in auto._emit0]
    for s in range(k):
        inv_next, inv_out = [0] * m, [0] * m
        for x, y in enumerate(auto._emit0[s]):
            inv_next[y] = k + auto._next[s][x]
            inv_out[y] = x
        nxt.append(inv_next)
        out.append(inv_out)
    names = list(auto.states) + [f"{name}'" for name in auto.states]
    order = draw(st.permutations(range(2 * k)))  # order[s]: the new index of state s
    at = sorted(range(2 * k), key=order.__getitem__)  # at[i]: the state placed at i
    return Automaton(
        m,
        [names[s] for s in at],
        [[order[t] for t in nxt[s]] for s in at],
        [[y + 1 for y in out[s]] for s in at],
    )


def reversal_classes(allowed, sigmas, iota, length):
    """The words of ``length`` over ``allowed`` split into the classes that
    the symmetries and w -> iota(reversed(w)) generate, by search from
    each word not yet placed."""
    seen = set()
    for word in itertools.product(allowed, repeat=length):
        if word in seen:
            continue
        seen.add(word)
        members, todo = [word], [word]
        while todo:
            w = todo.pop()
            for v in [tuple(sg[s] for s in w) for sg in sigmas] + [tuple(iota[s] for s in reversed(w))]:
                if v not in seen:
                    seen.add(v)
                    members.append(v)
                    todo.append(v)
        yield members


@st.composite
def commuting_machines(draw):
    """Small invertible machines of the Hanoi shape in which some states
    commute.  State s permutes the letters of its support, which is
    disjoint from some others' or overlaps them, and drops to the
    do-nothing state ``e`` there; on any other letter it passes the letter
    on and moves to itself or to an involution.  A state that is no
    involution, such as a 3-cycle, comes with a separate state that acts
    as its inverse, so iota is not the identity.  The states come in a
    drawn order."""
    m = draw(st.integers(4, 5))
    perms = []
    for _ in range(draw(st.integers(2, 4))):
        support = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=3, unique=True))
        perms.append(dict(zip(support, draw(st.permutations(support)))))
    drawn = len(perms)
    involutions = [i + 1 for i, p in enumerate(perms) if all(p[p[x]] == x for x in p)]
    # State s stands for perms[s - 1], and a separate inverse comes after the drawn states.
    inverse = {}
    for s in range(1, drawn + 1):
        if s not in involutions:
            inverse[s] = len(perms) + 1
            perms.append({y: x for x, y in perms[s - 1].items()})
    states = len(perms) + 1
    stay = [0] * states
    for s in range(1, drawn + 1):
        stay[s] = draw(st.sampled_from([s] + involutions))
    for s, t in inverse.items():
        stay[t] = t if stay[s] == s else stay[s]
    nxt = [[0] * m] + [[0 if x in perms[s - 1] else stay[s] for x in range(m)] for s in range(1, states)]
    out = [list(range(m))] + [[perms[s - 1].get(x, x) for x in range(m)] for s in range(1, states)]
    names = ["e"] + [f"s{s}" for s in range(1, states)]
    order = draw(st.permutations(range(states)))  # order[s]: the new index of state s
    at = sorted(range(states), key=order.__getitem__)  # at[i]: the state placed at i
    return Automaton(
        m,
        [names[s] for s in at],
        [[order[t] for t in nxt[s]] for s in at],
        [[y + 1 for y in out[s]] for s in at],
    )


def trace_classes(allowed, sigmas, pairs, iota, length):
    """The words of ``length`` over ``allowed`` split into the classes that
    the symmetries, swaps of adjacent states forming one of ``pairs`` and,
    unless ``iota`` is None, w -> iota(reversed(w)) generate, by search
    from each word not yet placed."""
    seen = set()
    for word in itertools.product(allowed, repeat=length):
        if word in seen:
            continue
        seen.add(word)
        members, todo = [word], [word]
        while todo:
            w = todo.pop()
            moves = [tuple(sg[s] for s in w) for sg in sigmas]
            moves += [w[:i] + (w[i + 1], w[i]) + w[i + 2:] for i in range(length - 1)
                      if (w[i], w[i + 1]) in pairs]
            if iota is not None:
                moves.append(tuple(iota[s] for s in reversed(w)))
            for v in moves:
                if v not in seen:
                    seen.add(v)
                    members.append(v)
                    todo.append(v)
        yield members
