"""The multi-peg Hanoi automaton family and game-model helpers.

A configuration of k disks on ``pegs`` pegs is a word of length k over
{1..pegs}: position i holds the peg of the i-th smallest disk.  The
machine for ``pegs`` pegs has a do-nothing state ``e`` plus one state
``a(i,j)`` per unordered peg pair; ``a(i,j)`` swaps the first letter equal
to i or j and leaves everything else alone, which is exactly a legal move
of the top disk between pegs i and j.

Strategy words follow the package-wide left-action convention: the
rightmost state acts first, so a play of moves m1, m2, ..., mt in time
order is the state word [mt, ..., m2, m1].  Solvers here return words in
that form, ready for :func:`mealygroup.automata.apply`.
"""

from __future__ import annotations

from typing import Sequence

from .automata import (
    Automaton,
    AutomatonError,
    _run_state,
    check_letter_word,
    check_state_word,
    renamed,
    restrict_to_fixing_states,
)

__all__ = [
    "MAX_PEGS",
    "hanoi_automaton",
    "generator_name",
    "transposition_pairs",
    "legal_moves",
    "solve_3peg",
    "frame_stewart",
    "frame_stewart_length",
    "frame_stewart_moves",
    "replay_strategy",
    "restriction_as_smaller_hanoi",
]


def generator_name(i: int, j: int) -> str:
    i, j = sorted((int(i), int(j)))
    return f"a({i},{j})"


def transposition_pairs(pegs: int) -> list:
    """Peg pairs (i, j), i < j, in the state order used by the machine."""
    return [(i, j) for i in range(1, pegs + 1) for j in range(i + 1, pegs + 1)]


# The machine has pegs*(pegs-1)/2 + 1 states with a row of pegs entries
# each, so its tables grow as pegs**3.  At 23 pegs it has 254 states, the
# most the compiled closure kernel holds at one byte per state.
MAX_PEGS = 23


def hanoi_automaton(pegs: int) -> Automaton:
    """Machine modelling single disk moves on 3 to :data:`MAX_PEGS` pegs.

    States: ``e`` (index 0, all loops x|x) and one state per peg pair;
    ``a(i,j)`` reads i emitting j (and j emitting i) while dropping to
    ``e``, and loops on every other letter.
    """
    pegs = int(pegs)
    if pegs < 3:
        raise AutomatonError("the game needs at least 3 pegs")
    if pegs > MAX_PEGS:
        raise AutomatonError(f"at most {MAX_PEGS} pegs are supported, got {pegs}")
    names = ["e"] + [generator_name(i, j) for i, j in transposition_pairs(pegs)]
    nxt = [[0] * pegs]
    emit = [list(range(1, pegs + 1))]
    for idx, (i, j) in enumerate(transposition_pairs(pegs), 1):
        trow = []
        orow = []
        for x in range(1, pegs + 1):
            if x == i:
                trow.append(0)
                orow.append(j)
            elif x == j:
                trow.append(0)
                orow.append(i)
            else:
                trow.append(idx)
                orow.append(x)
        nxt.append(trow)
        emit.append(orow)
    return Automaton(pegs, names, nxt, emit)


def _pegs_in_use(config: Sequence[int], pegs: int) -> set:
    """The pegs that hold a disk in ``config``, checked to lie in 1..pegs."""
    present = set(config)
    for x in present:
        if not 1 <= int(x) <= pegs:
            raise AutomatonError(f"peg {x} out of range 1..{pegs}")
    return present


def _moves_a_disk(present, i: int, j: int) -> bool:
    """The rule of :func:`legal_moves`, given the pegs in use (any
    container of them)."""
    return i in present or j in present


def legal_moves(config: Sequence[int], pegs: int) -> set:
    """Generator names that change the configuration: ``a(i,j)`` moves a
    disk exactly when some disk sits on peg i or j."""
    present = _pegs_in_use(config, pegs)
    return {
        generator_name(i, j)
        for i, j in transposition_pairs(pegs)
        if _moves_a_disk(present, i, j)
    }


def replay_strategy(auto: Automaton, word: Sequence[int], config: Sequence[int]):
    """Play a strategy word move by move (time order = right to left).

    Yields the configuration after each move; raises if a move touches no
    disk, i.e. is not a legal play.  A move is checked by the rule of
    :func:`legal_moves` against the configuration itself and played by the
    stepping loop of :func:`apply`, which stops at the do-nothing state, so
    it costs the depth of the disk it moves rather than a set of names.
    """
    pegs, names = auto.alphabet_size, auto.states
    pair_of = {generator_name(i, j): (i, j) for i, j in transposition_pairs(pegs)}
    pairs = [pair_of.get(nm) for nm in names]  # per state, the pegs its name moves between
    cfg = tuple(config)
    present = None
    for s in reversed(list(word)):
        if present is None:  # the configuration is checked at the first move
            present = _pegs_in_use(cfg, pegs)
            v = [x - 1 for x in check_letter_word(auto, cfg)]
        nm, pair = names[s], pairs[s]
        if pair is None or not _moves_a_disk(present, *pair):
            raise AutomatonError(f"move {nm} is illegal at configuration {cfg}")
        (s,) = check_state_word(auto, (s,))
        _run_state(auto, s, v)
        cfg = present = tuple([c + 1 for c in v])
        yield cfg


def solve_3peg(disks: int, source: int = 1, target: int = 3) -> tuple:
    """Classical three-peg solution moving ``disks`` disks source -> target.

    Returns generator names, rightmost move first, length 2**disks - 1.
    Unlike :func:`frame_stewart`, equal pegs are refused at 0 disks too.
    """
    names = frame_stewart(3, disks, source, target)  # checks the disks and the pegs
    if int(source) == int(target):
        raise AutomatonError("source and target pegs must differ")
    return names


def _split_tables(pegs: int, disks: int):
    # counts[p][k]: moves used by the split recursion with p pegs and k
    # disks; splits[p][k]: the chosen number of top disks parked aside
    # (smallest on ties, for reproducible words).
    counts = {3: [0] + [2**k - 1 for k in range(1, disks + 1)]}
    splits = {}
    for p in range(4, pegs + 1):
        row = [0] * (disks + 1)
        srow = [0] * (disks + 1)
        for k in range(1, disks + 1):
            if k == 1:
                row[k] = 1
                continue
            best = None
            best_k1 = None
            for k1 in range(1, k):
                cost = 2 * row[k1] + counts[p - 1][k - k1]
                if best is None or cost < best:
                    best = cost
                    best_k1 = k1
            row[k] = best
            srow[k] = best_k1
        counts[p] = row
        splits[p] = srow
    return counts, splits


def frame_stewart_length(pegs: int, disks: int) -> int:
    """Move count of the split recursion (2**k - 1 when ``pegs`` == 3)."""
    if pegs < 3:
        raise AutomatonError("the game needs at least 3 pegs")
    if disks < 0:
        raise AutomatonError("disk count must be nonnegative")
    counts, _ = _split_tables(pegs, disks)
    return counts[pegs][disks]


def frame_stewart(pegs: int, disks: int, source: int = 1, target: int = None) -> tuple:
    """Split-recursion strategy moving ``disks`` disks source -> target.

    Top ``k1`` disks go to a spare peg using all pegs, the rest cross with
    one peg fewer, then the parked disks follow; ``k1`` minimizes the move
    count (dynamic program over splits).  Returns generator names,
    rightmost move first.
    """
    return tuple(generator_name(i, j) for i, j in frame_stewart_moves(pegs, disks, source, target))


def frame_stewart_moves(pegs: int, disks: int, source: int = 1, target: int = None) -> list:
    """The moves of :func:`frame_stewart` as (from peg, to peg) pairs,
    rightmost move first."""
    if pegs < 3:
        raise AutomatonError("the game needs at least 3 pegs")
    if disks < 0:
        raise AutomatonError("disk count must be nonnegative")
    if target is None:
        target = pegs
    source, target = int(source), int(target)
    for p in (source, target):
        if not 1 <= p <= pegs:
            raise AutomatonError(f"peg {p} out of range 1..{pegs}")
    if source == target and disks > 0:
        raise AutomatonError("source and target pegs must differ")

    _, splits = _split_tables(pegs, disks)
    moves = []

    def rec(pegset, k, a, b):
        if k == 0:
            return
        if k == 1:
            moves.append((a, b))
            return
        if len(pegset) == 3:
            c = sum(pegset) - a - b
            rec(pegset, k - 1, a, c)
            moves.append((a, b))
            rec(pegset, k - 1, c, b)
            return
        k1 = splits[len(pegset)][k]
        spare = min(x for x in pegset if x not in (a, b))
        rec(pegset, k1, a, spare)
        rec(tuple(x for x in pegset if x != spare), k - k1, a, b)
        rec(pegset, k1, spare, b)

    rec(tuple(range(1, pegs + 1)), disks, source, target)
    moves.reverse()
    return moves


def restriction_as_smaller_hanoi(pegs: int, fixed: int) -> Automaton:
    """States of the ``pegs``-peg machine fixing peg ``fixed``, restricted
    to the remaining letters and canonically renamed/reordered so that it
    can be compared directly with ``hanoi_automaton(pegs - 1)``."""
    auto = hanoi_automaton(pegs)
    sub = restrict_to_fixing_states(auto, fixed)
    keep = [x for x in range(1, pegs + 1) if x != fixed]
    relabel = {old: new + 1 for new, old in enumerate(keep)}
    name_map = {"e": "e"}
    for i, j in transposition_pairs(pegs):
        if i != fixed and j != fixed:
            name_map[generator_name(i, j)] = generator_name(relabel[i], relabel[j])
    target_names = ["e"] + [generator_name(i, j) for i, j in transposition_pairs(pegs - 1)]
    renamed_of = {name_map[nm]: idx for idx, nm in enumerate(sub.states)}
    order = [renamed_of[nm] for nm in target_names]
    return renamed(sub, name_map, order)
