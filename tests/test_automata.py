import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mealygroup import (
    Automaton,
    AutomatonError,
    ParseError,
    apply,
    cascade_simulate,
    format_automaton,
    format_letter_word,
    format_state_word,
    induced_permutation,
    parse_automaton,
    parse_letter_word,
    parse_state_word,
    restrict_to_fixing_states,
    section_state,
    section_word,
    validate,
)
from mealygroup.automata import renamed


def w(auto, *names):
    return auto.word_from_names(names)


# --- validation -------------------------------------------------------------


def test_validate_hanoi_complete_and_invertible(ha4):
    report = validate(ha4)
    assert report.invertible
    assert report.issues == ()


def test_validate_identity_machine():
    auto = Automaton(3, ["s"], [[0, 0, 0]], [[1, 2, 3]])
    report = validate(auto)
    assert report.invertible
    assert auto.trivial_state == 0


def test_validate_non_permutation_row():
    auto = Automaton(2, ["s"], [[0, 0]], [[1, 1]])
    report = validate(auto)
    assert not report.invertible
    assert report.issues
    with pytest.raises(AutomatonError):
        induced_permutation(auto, (0,))


def test_constructor_rejects_gaps():
    with pytest.raises(AutomatonError):
        Automaton(2, ["s"], [[0]], [[1, 2]])
    with pytest.raises(AutomatonError):
        Automaton(2, ["s"], [[0, 5]], [[1, 2]])
    with pytest.raises(AutomatonError):
        Automaton(2, ["s"], [[0, 0]], [[1, 3]])
    with pytest.raises(AutomatonError):
        Automaton(2, ["s", "s"], [[0, 0], [1, 1]], [[1, 2], [1, 2]])


# --- actions ----------------------------------------------------------------


def test_apply_swaps_first_occurrence(ha4):
    assert apply(ha4, w(ha4, "a(1,2)"), (1, 3, 4)) == (2, 3, 4)


def test_apply_trivial_state(ha4):
    assert apply(ha4, w(ha4, "e"), (3, 1, 4, 2)) == (3, 1, 4, 2)


def test_apply_composes_rightmost_first(ha4):
    # a(2,3) turns 2 into 3, then a(1,2) leaves 3 alone
    assert apply(ha4, w(ha4, "a(1,2)", "a(2,3)"), (2,)) == (3,)


def test_apply_empty_word_and_empty_input(ha4):
    assert apply(ha4, (), (1, 2)) == (1, 2)
    assert apply(ha4, w(ha4, "a(1,2)"), ()) == ()


def test_apply_rejects_out_of_range(ha4):
    with pytest.raises(AutomatonError, match="position 2"):
        apply(ha4, w(ha4, "a(1,2)"), (1, 9))
    # The first bad state index is named, in a tuple, a list or any iterable.
    for word in [(0, 7, -1), [0, 1, 7, 99], iter((1, 2, 7))]:
        with pytest.raises(AutomatonError, match=r"^state index 7 at position \d out of range 0\.\.6$"):
            apply(ha4, word, (1,))
    with pytest.raises(AutomatonError, match="state index -1 at position 3 out"):
        apply(ha4, (0, 1, -1, 7), (1,))


def test_section_state_drops_on_move(ha4):
    a12 = ha4.state_index("a(1,2)")
    e = ha4.state_index("e")
    assert section_state(ha4, a12, (1,)) == e
    assert section_state(ha4, a12, (3,)) == a12
    assert section_state(ha4, e, (1, 2, 3, 4, 1)) == e
    assert section_state(ha4, a12, ()) == a12


def test_section_word_examples(ha4):
    assert section_word(ha4, w(ha4, "a(1,2)", "a(1,3)"), (1,)) == w(ha4, "a(1,2)", "e")
    word = w(ha4, "a(1,4)", "a(2,3)", "a(1,2)")
    assert section_word(ha4, word, ()) == word
    for v in [(1,), (2, 3), (4, 4, 1)]:
        assert section_word(ha4, (0, 0, 0), v) == (0, 0, 0)


def test_induced_permutation(ha4):
    assert induced_permutation(ha4, w(ha4, "a(1,2)")) == (2, 1, 3, 4)
    assert induced_permutation(ha4, w(ha4, "e")) == (1, 2, 3, 4)
    assert induced_permutation(ha4, w(ha4, "a(1,2)", "a(1,2)")) == (1, 2, 3, 4)
    assert induced_permutation(ha4, ()) == (1, 2, 3, 4)


def test_cascade_simulate_matches_action_and_section(ha4):
    # the chain emits what the word action emits, and ends in the section
    out, config = cascade_simulate(ha4, w(ha4, "a(1,2)", "a(1,3)"), (1,))
    assert out == (3,)
    assert config == w(ha4, "a(1,2)", "e")
    word = w(ha4, "a(2,4)", "a(1,3)")
    assert cascade_simulate(ha4, word, ()) == ((), word)
    assert cascade_simulate(ha4, w(ha4, "e"), (4,)) == ((4,), w(ha4, "e"))


@st.composite
def machines_with_do_nothing_states(draw):
    """Small machines, invertible or not, with zero, one or two do-nothing
    states among the others (a drawn state may happen to be one too)."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    total = k + draw(st.integers(0, 2))
    nxt = [[draw(st.integers(0, total - 1)) for _ in range(m)] for _ in range(k)]
    out = [[draw(st.integers(1, m)) for _ in range(m)] for _ in range(k)]
    nxt += [[s] * m for s in range(k, total)]
    out += [list(range(1, m + 1))] * (total - k)
    order = draw(st.permutations(range(total)))  # order[s]: the new index of state s
    at = sorted(range(total), key=order.__getitem__)  # at[i]: the state placed at i
    return Automaton(m, [f"s{i}" for i in range(total)],
                     [[order[t] for t in nxt[s]] for s in at], [out[s] for s in at])


@settings(max_examples=150, deadline=None)
@given(auto=machines_with_do_nothing_states(), data=st.data())
def test_section_word_is_the_final_configuration_of_the_cascade(auto, data):
    # section_word stops each state at a do-nothing state; the cascade
    # steps every copy through every letter.
    k, m = len(auto.states), auto.alphabet_size
    word = data.draw(st.lists(st.integers(0, k - 1), max_size=8).map(tuple))
    v = data.draw(_letters(m))
    for u in (word, word + tuple(sorted(auto._trivials)) + word):
        out, config = cascade_simulate(auto, u, v)
        assert section_word(auto, u, v) == config
        assert apply(auto, u, v) == out


# --- algebraic properties ---------------------------------------------------


def _words(auto, max_len=6):
    return st.lists(
        st.integers(0, len(auto.states) - 1), min_size=0, max_size=max_len
    ).map(tuple)


def _letters(m, max_len=8):
    return st.lists(st.integers(1, m), min_size=0, max_size=max_len).map(tuple)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_action_is_homomorphism(ha4, data):
    w1 = data.draw(_words(ha4))
    w2 = data.draw(_words(ha4))
    v = data.draw(_letters(4))
    assert apply(ha4, w1 + w2, v) == apply(ha4, w1, apply(ha4, w2, v))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_section_cocycle(ha4, data):
    w1 = data.draw(_words(ha4))
    w2 = data.draw(_words(ha4))
    v = data.draw(_letters(4))
    lhs = section_word(ha4, w1 + w2, v)
    rhs = section_word(ha4, w1, apply(ha4, w2, v)) + section_word(ha4, w2, v)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_section_chain_rule(ha4, data):
    word = data.draw(_words(ha4))
    v = data.draw(_letters(4))
    u = data.draw(_letters(4))
    assert section_word(ha4, word, v + u) == section_word(
        ha4, section_word(ha4, word, v), u
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lengths_preserved(ha5, data):
    word = data.draw(_words(ha5))
    v = data.draw(_letters(5))
    assert len(apply(ha5, word, v)) == len(v)
    assert len(section_word(ha5, word, v)) == len(word)


def test_action_bijective_on_short_inputs(ha3):
    rng = random.Random(5)
    for _ in range(20):
        word = tuple(rng.randrange(len(ha3.states)) for _ in range(rng.randrange(6)))
        for length in range(5):
            images = {apply(ha3, word, v) for v in oracles.all_letter_words(3, length)}
            assert len(images) == 3**length


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_section_agrees_with_cascade_and_naive(ha4, data):
    word = data.draw(_words(ha4))
    v = data.draw(_letters(4))
    sec = section_word(ha4, word, v)
    out, config = cascade_simulate(ha4, word, v)
    assert config == sec
    assert out == apply(ha4, word, v)
    assert sec == oracles.word_section(ha4, word, v)
    assert out == oracles.word_image(ha4, word, v)


# --- text formats -----------------------------------------------------------


def test_automaton_round_trip(ha5):
    text = format_automaton(ha5)
    again = parse_automaton(text)
    assert again == ha5
    assert format_automaton(again) == text


def test_parse_accepts_comments_and_blank_lines():
    text = """
    # one-state machine
    alphabet 2
    states z   # trailing comment

    z 1 -> z 1
    z 2 -> z 2
    """
    auto = parse_automaton(text)
    assert auto.states == ("z",)
    assert auto.trivial_state == 0


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda lines: lines[2:3], "missing"),
        (lambda lines: [lines[2], lines[2]], "duplicate"),
        (lambda lines: ["e 7 -> e 1"], "out of range"),
        (lambda lines: ["q 1 -> e 1"], "unknown state"),
        (lambda lines: ["e 1 e 1"], "expected"),
    ],
)
def test_parse_errors(mutation, message):
    base = ["alphabet 2", "states e", "e 1 -> e 1", "e 2 -> e 2"]
    lines = base[:2] + mutation(base)
    with pytest.raises(ParseError, match=message):
        parse_automaton("\n".join(lines))


def test_letter_word_grammar():
    assert parse_letter_word("134", 4) == (1, 3, 4)
    assert parse_letter_word("1 3 4", 4) == (1, 3, 4)
    assert parse_letter_word("", 4) == ()
    assert parse_letter_word("12", 12) == (12,)
    assert parse_letter_word("3 11 2", 12) == (3, 11, 2)
    assert format_letter_word((1, 3, 4), 4) == "134"
    assert format_letter_word((3, 11, 2), 12) == "3 11 2"
    with pytest.raises(ParseError, match="position 2"):
        parse_letter_word("19", 4)
    with pytest.raises(ParseError, match="not a number"):
        parse_letter_word("1 x", 12)


def test_state_word_grammar(ha4):
    assert parse_state_word(ha4, "a(1,2).a(3,4)") == w(ha4, "a(1,2)", "a(3,4)")
    assert parse_state_word(ha4, "a(2,1)") == w(ha4, "a(1,2)")
    assert parse_state_word(ha4, "") == ()
    assert format_state_word(ha4, w(ha4, "a(1,2)", "e")) == "a(1,2).e"
    assert format_state_word(ha4, ()) == ""
    with pytest.raises(ParseError, match="position 2"):
        parse_state_word(ha4, "e.b(1,2)")
    for word, message in [((1, -1), "state index -1 at position 2 out of range 0..6"),
                          ((7, 1), "state index 7 at position 1 out of range 0..6")]:
        with pytest.raises(AutomatonError, match=re.escape(message)):
            format_state_word(ha4, word)


# --- machine surgery --------------------------------------------------------


def test_restrict_to_fixing_states(ha4):
    sub = restrict_to_fixing_states(ha4, 4)
    assert sub.alphabet_size == 3
    assert set(sub.states) == {"e", "a(1,2)", "a(1,3)", "a(2,3)"}
    assert validate(sub).invertible


def test_restrict_rejects_unclosed_set():
    # p fixes letter 1 but reads the kept letter 2 into q, which does not
    auto = Automaton(2, ["p", "q"], [[0, 1], [1, 1]], [[1, 2], [2, 1]])
    with pytest.raises(AutomatonError, match="not closed"):
        restrict_to_fixing_states(auto, 1)


def test_renamed_requires_permutation(ha3):
    with pytest.raises(AutomatonError):
        renamed(ha3, order=[0, 0, 1, 2])
    swapped = renamed(ha3, order=[1, 0, 2, 3])
    assert swapped.states[0] == "a(1,2)"
    assert renamed(swapped, order=[1, 0, 2, 3]) == ha3
