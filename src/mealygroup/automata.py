"""Complete deterministic Mealy transducers over the alphabet {1..m}.

A machine is a finite labeled graph: every state has, for each letter,
exactly one outgoing arrow that names the next state and the letter to
emit.  A state started on an input word therefore transforms it letter by
letter, and a *word of states* acts by composition, the rightmost state
reading the raw input first (left action).

The derived operation everything else builds on is the *section*: the
state, or word of states, left over once part of the input has been
consumed.  Sections of state words are computed position by position --
position ``i`` is sectioned at the image of the input under the states to
its right -- which is equivalent to chaining one machine copy per state
with copy ``i+1`` feeding copy ``i`` (see :func:`cascade_simulate`).

:func:`apply` and :func:`section_word` run in the compiled kernel when it
loads (``mg_run``); :func:`_run_state` is its twin, and runs without it.

Conventions used throughout the package:

* letters are 1-based integers; words of letters are tuples of ints,
* states are referred to by index into ``Automaton.states``; words of
  states are tuples of indices,
* empty words are legal everywhere and act as identities,
* state words are compared literally, index by index; two distinct states
  inducing the same transformation stay distinct.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

__all__ = [
    "Automaton",
    "AutomatonError",
    "ParseError",
    "ValidationReport",
    "validate",
    "apply",
    "section_state",
    "section_word",
    "induced_permutation",
    "cascade_simulate",
    "check_letter_word",
    "check_state_word",
    "parse_automaton",
    "format_automaton",
    "parse_letter_word",
    "format_letter_word",
    "parse_state_word",
    "format_state_word",
    "restrict_to_fixing_states",
    "renamed",
]


class AutomatonError(ValueError):
    """A machine, word, or letter violates the structural requirements."""


class ParseError(AutomatonError):
    """A textual machine or word description could not be parsed."""


StateWord = tuple
LetterWord = tuple

_PAIR_NAME = re.compile(r"^a\((\d+),(\d+)\)$")


class Automaton:
    """A complete Mealy machine: total transition and output tables.

    ``transition[s][x-1]`` is the next-state index and ``output[s][x-1]``
    the emitted letter when state ``s`` reads letter ``x``.  Totality and
    ranges are enforced at construction; invertibility (every output row a
    permutation) is recorded but not required, so that diagnostics can be
    produced for broken machines.  Instances are immutable by convention
    and safe to share across workers.
    """

    __slots__ = (
        "alphabet_size",
        "states",
        "_index",
        "_next",
        "_emit0",
        "_invertible",
        "_trivial",
        "_trivials",
        "_fix_bits",
        "_hash",
    )

    def __init__(
        self,
        alphabet_size: int,
        states: Sequence[str],
        transition: Sequence[Sequence[int]],
        output: Sequence[Sequence[int]],
    ):
        m = int(alphabet_size)
        if m < 1:
            raise AutomatonError("alphabet size must be at least 1")
        names = tuple(str(s) for s in states)
        if not names:
            raise AutomatonError("an automaton needs at least one state")
        if len(set(names)) != len(names):
            raise AutomatonError("duplicate state names")
        k = len(names)
        if len(transition) != k or len(output) != k:
            raise AutomatonError(
                f"need one transition row and one output row per state ({k})"
            )
        nxt = []
        emit0 = []
        for si in range(k):
            trow = tuple(int(t) for t in transition[si])
            orow = tuple(int(y) for y in output[si])
            if len(trow) != m or len(orow) != m:
                raise AutomatonError(
                    f"state {names[si]!r}: need one entry per letter 1..{m}"
                )
            for x0 in range(m):
                if not 0 <= trow[x0] < k:
                    raise AutomatonError(
                        f"state {names[si]!r}, letter {x0 + 1}: "
                        f"next-state index {trow[x0]} out of range"
                    )
                if not 1 <= orow[x0] <= m:
                    raise AutomatonError(
                        f"state {names[si]!r}, letter {x0 + 1}: "
                        f"output letter {orow[x0]} out of range 1..{m}"
                    )
            nxt.append(trow)
            emit0.append(tuple(y - 1 for y in orow))

        self.alphabet_size = m
        self.states = names
        self._index = {nm: i for i, nm in enumerate(names)}
        self._next = tuple(nxt)
        self._emit0 = tuple(emit0)
        self._invertible = all(sorted(row) == list(range(m)) for row in self._emit0)
        self._trivials = frozenset(
            s
            for s in range(k)
            if all(self._next[s][c] == s and self._emit0[s][c] == c for c in range(m))
        )
        self._trivial = min(self._trivials, default=None)
        self._fix_bits = tuple(
            sum(1 << c for c in range(m) if row[c] == c) for row in self._emit0
        )
        # Kept: the closure queries look their kernel up by machine on every call.
        self._hash = hash((m, names, self._next, self._emit0))

    @property
    def is_invertible(self) -> bool:
        return self._invertible

    @property
    def trivial_state(self) -> Optional[int]:
        """Index of the designated do-nothing state (all self-loop x|x), if any."""
        return self._trivial

    def state_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AutomatonError(
                f"unknown state {name!r}; states are {', '.join(self.states)}"
            ) from None

    def word_from_names(self, names: Iterable[str]) -> tuple:
        return tuple(self.state_index(nm) for nm in names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Automaton):
            return NotImplemented
        return (
            self.alphabet_size == other.alphabet_size
            and self.states == other.states
            and self._next == other._next
            and self._emit0 == other._emit0
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Automaton(alphabet={self.alphabet_size}, states={len(self.states)})"


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics for a machine; never raises, group-level ops check it.
    Completeness needs no field: the constructor rejects partial tables."""

    invertible: bool
    issues: tuple


def validate(auto: Automaton) -> ValidationReport:
    """Report per-state output-permutation status."""
    m = auto.alphabet_size
    issues = []
    invertible = True
    for s, orow in enumerate(auto._emit0):
        if sorted(orow) != list(range(m)):
            invertible = False
            outs = tuple(c + 1 for c in orow)
            issues.append(
                f"state {auto.states[s]!r}: outputs {outs} are not a permutation of 1..{m}"
            )
    return ValidationReport(invertible, tuple(issues))


def check_letter_word(auto: Automaton, letters: Iterable[int]) -> tuple:
    m = auto.alphabet_size
    out = tuple(map(int, letters))
    if out and (min(out) < 1 or max(out) > m):
        pos, x = next((pos, x) for pos, x in enumerate(out, 1) if not 1 <= x <= m)
        raise AutomatonError(f"letter {x} at position {pos} out of range 1..{m}")
    return out


def check_state_word(auto: Automaton, word: Iterable[int]) -> tuple:
    k = len(auto.states)
    out = tuple(map(int, word))
    if out and (min(out) < 0 or max(out) >= k):
        pos, s = next((pos, s) for pos, s in enumerate(out, 1) if not 0 <= s < k)
        raise AutomatonError(f"state index {s} at position {pos} out of range 0..{k - 1}")
    return out


@functools.cache
def _kernel_module():
    """The module ``_kernel``, imported on first use, so that ``import
    mealygroup`` loads no ctypes; a function import costs a query 1 µs."""
    from . import _kernel

    return _kernel


def _compiled_run(auto: Automaton, word, letters) -> Optional[tuple]:
    """``(apply, section_word)`` from the machine's compiled kernel, or None
    when it cannot be loaded or refuses the input."""
    kernel = _kernel_module().compiled_closure(auto)
    return kernel and kernel.run(word, letters)


def _run_state(auto: Automaton, st: int, v: list) -> int:
    """Run state ``st`` over the 0-based letters ``v``, rewriting them in
    place, and return the state it ends in; it stops at a do-nothing state,
    which leaves the rest as it is and stays put.  The twin of ``mg_run``."""
    nxt, emit0, idle = auto._next, auto._emit0, auto._trivials
    for j, c in enumerate(v):
        if st in idle:
            return st
        v[j] = emit0[st][c]
        st = nxt[st][c]
    return st


def apply(auto: Automaton, word: Sequence[int], letters: Sequence[int]) -> tuple:
    """Image of ``letters`` under the state word (rightmost state reads first)."""
    if run := _compiled_run(auto, word, letters):
        return run[0]
    w = check_state_word(auto, word)
    v = [x - 1 for x in check_letter_word(auto, letters)]
    for s in reversed(w):
        _run_state(auto, s, v)
    return tuple(c + 1 for c in v)


def section_state(auto: Automaton, state: int, letters: Sequence[int]) -> int:
    """State reached from ``state`` after reading ``letters``."""
    (s,) = check_state_word(auto, (state,))
    nxt = auto._next
    for x in check_letter_word(auto, letters):
        s = nxt[s][x - 1]
    return s


def section_word(auto: Automaton, word: Sequence[int], letters: Sequence[int]) -> tuple:
    """Section of a state word: position ``i`` is sectioned at the image of
    the input under the states to its right.  It runs :func:`apply`'s
    stepping loop, so a position stops reading at a do-nothing state."""
    if run := _compiled_run(auto, word, letters):
        return run[1]
    w = check_state_word(auto, word)
    v = [x - 1 for x in check_letter_word(auto, letters)]
    return tuple([_run_state(auto, s, v) for s in reversed(w)][::-1])


def cascade_simulate(
    auto: Automaton, word: Sequence[int], letters: Sequence[int]
) -> "tuple[tuple, tuple]":
    """Serial-chain simulation: one machine copy per state, copy ``i+1``
    feeding copy ``i``.  Returns (output word, final state configuration).

    Deliberately letter-major where :func:`section_word` is state-major,
    so the two serve as cross-checks of each other.
    """
    w = list(check_state_word(auto, word))
    v = check_letter_word(auto, letters)
    nxt, emit0 = auto._next, auto._emit0
    out = []
    for x in v:
        cur = x - 1
        for i in range(len(w) - 1, -1, -1):
            s = w[i]
            w[i] = nxt[s][cur]
            cur = emit0[s][cur]
        out.append(cur + 1)
    return tuple(out), tuple(w)


def induced_permutation(auto: Automaton, word: Sequence[int]) -> tuple:
    """The permutation of single letters induced by the state word."""
    if not auto.is_invertible:
        raise AutomatonError("single-letter action is a permutation only for invertible automata")
    w = check_state_word(auto, word)
    emit0 = auto._emit0
    perm = []
    for x0 in range(auto.alphabet_size):
        cur = x0
        for s in reversed(w):
            cur = emit0[s][cur]
        perm.append(cur + 1)
    return tuple(perm)


# ---------------------------------------------------------------------------
# Text formats.


def format_letter_word(letters: Sequence[int], alphabet_size: int) -> str:
    if alphabet_size <= 9:
        return "".join(str(x) for x in letters)
    return " ".join(str(x) for x in letters)


def parse_letter_word(text: str, alphabet_size: int) -> tuple:
    """Parse letters: contiguous digits for m <= 9, space-separated decimals
    otherwise (spaces are accepted for any m)."""
    text = text.strip()
    if not text:
        return ()
    tokens = text.split()
    if len(tokens) == 1 and alphabet_size <= 9 and len(tokens[0]) > 1:
        tokens = list(tokens[0])
    letters = []
    for pos, tok in enumerate(tokens, 1):
        if not tok.isdigit():
            raise ParseError(f"letter token {tok!r} at position {pos} is not a number")
        x = int(tok)
        if not 1 <= x <= alphabet_size:
            raise ParseError(
                f"letter {x} at position {pos} out of range 1..{alphabet_size}"
            )
        letters.append(x)
    return tuple(letters)


def format_state_word(auto: Automaton, word: Sequence[int]) -> str:
    if word and not 0 <= min(word) <= max(word) < len(auto.states):
        check_state_word(auto, word)  # raises the error naming the position
    return ".".join(map(auto.states.__getitem__, word))


def parse_state_word(auto: Automaton, text: str) -> tuple:
    """Parse a dot-separated word of state names; pair names ``a(j,i)``
    are accepted for ``a(i,j)``."""
    text = text.strip()
    if not text:
        return ()
    word = []
    for pos, name in enumerate(text.split("."), 1):
        name = name.strip()
        try:
            word.append(auto.state_index(name))
            continue
        except AutomatonError:
            pair = _PAIR_NAME.match(name)
            if pair:
                i, j = sorted((int(pair.group(1)), int(pair.group(2))))
                swapped = f"a({i},{j})"
                if swapped in auto._index:
                    word.append(auto._index[swapped])
                    continue
        raise ParseError(
            f"unknown state {name!r} at word position {pos}; "
            f"states are {', '.join(auto.states)}"
        )
    return tuple(word)


def format_automaton(auto: Automaton) -> str:
    """Line-oriented text form; parses back to an equal machine."""
    lines = [f"alphabet {auto.alphabet_size}", "states " + " ".join(auto.states)]
    for s, nm in enumerate(auto.states):
        for x0 in range(auto.alphabet_size):
            lines.append(
                f"{nm} {x0 + 1} -> "
                f"{auto.states[auto._next[s][x0]]} {auto._emit0[s][x0] + 1}"
            )
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> Automaton:
    """Parse the line-oriented machine format.

    Line 1: ``alphabet <m>``; line 2: ``states <name> ...``; then one line
    ``<state> <letter> -> <state> <letter>`` per (state, letter) pair, in
    any order.  ``#`` starts a comment.  Missing or duplicate entries are
    parse errors.
    """
    significant = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            significant.append((lineno, line))
    if len(significant) < 2:
        raise ParseError("expected 'alphabet' and 'states' header lines")

    lineno, line = significant[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "alphabet" or not parts[1].isdigit():
        raise ParseError(f"line {lineno}: expected 'alphabet <m>', got {line!r}")
    m = int(parts[1])
    if m < 1:
        raise ParseError(f"line {lineno}: alphabet size must be at least 1")

    lineno, line = significant[1]
    parts = line.split()
    if len(parts) < 2 or parts[0] != "states":
        raise ParseError(f"line {lineno}: expected 'states <name> ...', got {line!r}")
    names = parts[1:]
    if len(set(names)) != len(names):
        raise ParseError(f"line {lineno}: duplicate state names")
    index = {nm: i for i, nm in enumerate(names)}

    nxt = [[None] * m for _ in names]
    emit = [[None] * m for _ in names]
    for lineno, line in significant[2:]:
        parts = line.split()
        if len(parts) != 5 or parts[2] != "->":
            raise ParseError(
                f"line {lineno}: expected '<state> <letter> -> <state> <letter>', got {line!r}"
            )
        src, xin, _, dst, yout = parts
        if src not in index:
            raise ParseError(f"line {lineno}: unknown state {src!r}")
        if dst not in index:
            raise ParseError(f"line {lineno}: unknown state {dst!r}")
        if not xin.isdigit() or not 1 <= int(xin) <= m:
            raise ParseError(f"line {lineno}: input letter {xin!r} out of range 1..{m}")
        if not yout.isdigit() or not 1 <= int(yout) <= m:
            raise ParseError(f"line {lineno}: output letter {yout!r} out of range 1..{m}")
        s, x0 = index[src], int(xin) - 1
        if nxt[s][x0] is not None:
            raise ParseError(f"line {lineno}: duplicate entry for state {src!r}, letter {xin}")
        nxt[s][x0] = index[dst]
        emit[s][x0] = int(yout)

    missing = [
        f"({names[s]}, {x0 + 1})"
        for s in range(len(names))
        for x0 in range(m)
        if nxt[s][x0] is None
    ]
    if missing:
        raise ParseError("missing transition entries: " + ", ".join(missing))
    return Automaton(m, names, nxt, emit)


# ---------------------------------------------------------------------------
# Machine surgery.


def restrict_to_fixing_states(auto: Automaton, letter: int) -> Automaton:
    """Restriction of the machine to states whose one-letter action fixes
    ``letter``, over the alphabet with ``letter`` removed (remaining letters
    renumbered in order).  Raises if those states are not transition-closed
    over the remaining letters."""
    m = auto.alphabet_size
    if not 1 <= letter <= m:
        raise AutomatonError(f"letter {letter} out of range 1..{m}")
    if m < 2:
        raise AutomatonError("cannot remove the last letter")
    x0 = letter - 1
    keep_states = [s for s in range(len(auto.states)) if auto._emit0[s][x0] == x0]
    if not keep_states:
        raise AutomatonError(f"no state fixes letter {letter}")
    sub_index = {s: i for i, s in enumerate(keep_states)}
    keep_letters = [c for c in range(m) if c != x0]
    new_letter = {c: i + 1 for i, c in enumerate(keep_letters)}

    nxt = []
    emit = []
    for s in keep_states:
        trow = []
        orow = []
        for c in keep_letters:
            t = auto._next[s][c]
            if t not in sub_index:
                raise AutomatonError(
                    f"states fixing letter {letter} are not closed: "
                    f"{auto.states[s]} reads {c + 1} into {auto.states[t]}"
                )
            trow.append(sub_index[t])
            orow.append(new_letter[auto._emit0[s][c]])
        nxt.append(trow)
        emit.append(orow)
    return Automaton(m - 1, [auto.states[s] for s in keep_states], nxt, emit)


def renamed(auto: Automaton, name_map=None, order: Optional[Sequence[int]] = None) -> Automaton:
    """Copy with states renamed via ``name_map`` and/or reordered by the
    permutation ``order`` (a sequence of old indices)."""
    k = len(auto.states)
    if order is None:
        order = list(range(k))
    if sorted(order) != list(range(k)):
        raise AutomatonError("order must be a permutation of the state indices")
    pos = {old: newpos for newpos, old in enumerate(order)}
    name_map = dict(name_map or {})
    names = [name_map.get(auto.states[old], auto.states[old]) for old in order]
    nxt = [[pos[auto._next[old][c]] for c in range(auto.alphabet_size)] for old in order]
    emit = [[auto._emit0[old][c] + 1 for c in range(auto.alphabet_size)] for old in order]
    return Automaton(auto.alphabet_size, names, nxt, emit)
