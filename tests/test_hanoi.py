import hashlib
import random

import pytest

import oracles
from mealygroup import (
    AutomatonError,
    apply,
    frame_stewart,
    frame_stewart_length,
    hanoi_automaton,
    legal_moves,
    replay_strategy,
    restriction_as_smaller_hanoi,
    section_state,
    solve_3peg,
    transposition_pairs,
)
from mealygroup.hanoi import MAX_PEGS


@pytest.mark.parametrize("pegs", [3, 4, 5, 6])
def test_state_count(pegs):
    auto = hanoi_automaton(pegs)
    assert len(auto.states) == 1 + pegs * (pegs - 1) // 2
    assert auto.states[0] == "e"
    assert auto.is_invertible


def test_rejects_too_few_pegs():
    with pytest.raises(AutomatonError):
        hanoi_automaton(2)


def test_peg_count_is_capped():
    assert len(hanoi_automaton(MAX_PEGS).states) == 254
    with pytest.raises(AutomatonError, match=f"at most {MAX_PEGS} pegs"):
        hanoi_automaton(MAX_PEGS + 1)


def test_arrows_follow_the_swap_rules(ha4):
    e = ha4.state_index("e")
    for i, j in transposition_pairs(4):
        s = ha4.state_index(f"a({i},{j})")
        for x in range(1, 5):
            if x == i:
                assert ha4._next[s][x - 1] == e and ha4._emit0[s][x - 1] + 1 == j
            elif x == j:
                assert ha4._next[s][x - 1] == e and ha4._emit0[s][x - 1] + 1 == i
            else:
                assert ha4._next[s][x - 1] == s and ha4._emit0[s][x - 1] + 1 == x


@pytest.mark.parametrize("pegs", [3, 4, 5, 6])
def test_moved_letter_drops_state_fixed_letter_keeps_it(pegs):
    auto = hanoi_automaton(pegs)
    e = auto.state_index("e")
    for s in range(1, len(auto.states)):
        for x in range(1, pegs + 1):
            moved = apply(auto, (s,), (x,)) != (x,)
            sec = section_state(auto, s, (x,))
            assert sec == (e if moved else s)


@pytest.mark.parametrize("pegs", [3, 4, 5, 6])
def test_generators_are_involutions(pegs):
    from mealygroup import is_identity

    auto = hanoi_automaton(pegs)
    for s in range(1, len(auto.states)):
        assert is_identity(auto, (s, s))


def test_first_occurrence_semantics(ha5):
    rng = random.Random(11)
    for _ in range(300):
        v = tuple(rng.randint(1, 5) for _ in range(rng.randrange(12)))
        i, j = sorted(rng.sample(range(1, 6), 2))
        s = ha5.state_index(f"a({i},{j})")
        image = apply(ha5, (s,), v)
        hits = [p for p, x in enumerate(v) if x in (i, j)]
        if not hits:
            assert image == v
        else:
            p = hits[0]
            assert image[:p] == v[:p] and image[p + 1 :] == v[p + 1 :]
            assert {image[p], v[p]} == {i, j} and image[p] != v[p]


def test_legal_moves_examples():
    assert legal_moves((1, 1, 1), 3) == {"a(1,2)", "a(1,3)"}
    assert legal_moves((), 3) == set()
    assert legal_moves((1, 2), 3) == {"a(1,2)", "a(1,3)", "a(2,3)"}


def test_legal_moves_are_exactly_the_changing_generators(ha3):
    for length in range(5):
        for cfg in oracles.all_letter_words(3, length):
            changing = {
                ha3.states[s]
                for s in range(1, len(ha3.states))
                if apply(ha3, (s,), cfg) != cfg
            }
            assert legal_moves(cfg, 3) == changing


@pytest.mark.parametrize("pegs", [3, 4, 5, 6])
def test_fixing_states_closed_under_sections(pegs):
    auto = hanoi_automaton(pegs)
    for x in range(1, pegs + 1):
        fixing = {s for s in range(len(auto.states)) if apply(auto, (s,), (x,)) == (x,)}
        for s in fixing:
            for y in range(1, pegs + 1):
                assert section_state(auto, s, (y,)) in fixing


@pytest.mark.parametrize("pegs", [4, 5, 6])
def test_restriction_is_smaller_hanoi(pegs):
    smaller = hanoi_automaton(pegs - 1)
    for x in range(1, pegs + 1):
        assert restriction_as_smaller_hanoi(pegs, x) == smaller


# --- game solvers -----------------------------------------------------------


def test_solve_3peg_basics(ha3):
    assert solve_3peg(1, 1, 3) == ("a(1,3)",)
    assert solve_3peg(0, 1, 2) == ()
    word = ha3.word_from_names(solve_3peg(3, 1, 3))
    assert len(word) == 7
    assert apply(ha3, word, (1, 1, 1)) == (3, 3, 3)


@pytest.mark.parametrize("disks", range(9))
def test_solve_3peg_lengths_endpoints_and_legality(ha3, disks):
    names = solve_3peg(disks, 2, 1)
    assert len(names) == 2**disks - 1
    word = ha3.word_from_names(names)
    start = (2,) * disks
    assert apply(ha3, word, start) == (1,) * disks
    configs = list(replay_strategy(ha3, word, start))
    assert len(configs) == len(names)


def test_solve_3peg_rejects_bad_pegs():
    with pytest.raises(AutomatonError):
        solve_3peg(2, 1, 1)
    with pytest.raises(AutomatonError):
        solve_3peg(2, 0, 3)
    with pytest.raises(AutomatonError):
        solve_3peg(-1, 1, 3)


def test_solve_3peg_refuses_equal_pegs_at_zero_disks():
    assert frame_stewart(3, 0, 2, 2) == ()
    with pytest.raises(AutomatonError, match="must differ"):
        solve_3peg(0, 2, 2)


def test_solve_3peg_names_are_pinned():
    # The names for 0..10 disks between every ordered pair of distinct
    # pegs, one dotted line each, as the classical recursion gave them.
    text = "".join(".".join(solve_3peg(disks, a, b)) + "\n"
                   for disks in range(11) for a in (1, 2, 3) for b in (1, 2, 3) if a != b)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "170d16f81520b34a75b606a3ac42eea6ea9e81139297722385ebef648fdba45f")


def test_frame_stewart_three_pegs_is_classic():
    assert frame_stewart_length(3, 4) == 15
    assert len(frame_stewart(3, 4)) == 15


def test_frame_stewart_trivia():
    assert frame_stewart(4, 0) == ()
    assert frame_stewart(4, 1) == ("a(1,4)",)
    assert frame_stewart_length(4, 1) == 1


@pytest.mark.parametrize(
    "pegs, disks",
    [(3, k) for k in range(1, 9)]
    + [(4, k) for k in range(1, 8)]
    + [(5, k) for k in range(1, 7)]
    + [(6, 5), (7, 4)],
)
def test_frame_stewart_matches_bfs_optimum(pegs, disks):
    assert frame_stewart_length(pegs, disks) == oracles.bfs_config_optimum(pegs, disks)


@pytest.mark.parametrize("pegs, disks", [(4, 5), (5, 6), (4, 7)])
def test_frame_stewart_word_verifies_by_replay(pegs, disks):
    auto = hanoi_automaton(pegs)
    names = frame_stewart(pegs, disks)
    assert len(names) == frame_stewart_length(pegs, disks)
    word = auto.word_from_names(names)
    start = (1,) * disks
    assert apply(auto, word, start) == (pegs,) * disks
    configs = list(replay_strategy(auto, word, start))
    assert configs[-1] == (pegs,) * disks


def test_frame_stewart_custom_endpoints():
    auto = hanoi_automaton(4)
    names = frame_stewart(4, 4, source=2, target=3)
    word = auto.word_from_names(names)
    assert apply(auto, word, (2, 2, 2, 2)) == (3, 3, 3, 3)


def test_replay_rejects_null_moves(ha3):
    # a(2,3) touches nothing on a tower sitting on peg 1
    word = ha3.word_from_names(["a(2,3)"])
    with pytest.raises(AutomatonError, match="illegal"):
        list(replay_strategy(ha3, word, (1, 1)))


def replay_by_definition(auto, word, config):
    """The replay as the game defines it: each move must be one of
    ``legal_moves`` and is played with ``apply``."""
    cfg = tuple(config)
    for s in reversed(list(word)):
        nm = auto.states[s]
        if nm not in legal_moves(cfg, auto.alphabet_size):
            raise AutomatonError(f"move {nm} is illegal at configuration {cfg}")
        cfg = apply(auto, (s,), cfg)
        yield cfg


def played(replay):
    """The configurations a replay yields, and the error that ends it."""
    configs = []
    try:
        for cfg in replay:
            configs.append(cfg)
    except AutomatonError as exc:
        return configs, str(exc)
    return configs, None


@pytest.mark.parametrize("pegs", [3, 4, 5])
def test_replay_matches_legal_moves_and_apply_on_random_words(pegs):
    # Random words, mostly of moves but with the do-nothing state and index
    # -1 among them, on random configurations, some with empty pegs and
    # some with a peg out of range: illegal moves end most of them.
    auto = hanoi_automaton(pegs)
    k = len(auto.states)
    rng = random.Random(pegs)
    errors = 0
    for _ in range(400):
        config = tuple(rng.randint(1, pegs) for _ in range(rng.randrange(8)))
        if rng.random() < 0.05:
            config += (rng.choice([0, pegs + 1]),)
        word = tuple(rng.randrange(1, k) if rng.random() < 0.97 else rng.choice([-1, 0])
                     for _ in range(rng.randrange(60)))
        result = played(replay_strategy(auto, word, config))
        assert result == played(replay_by_definition(auto, word, config)), (word, config)
        errors += result[1] is not None
    assert 100 < errors < 400
    # A long legal play, then a move between the two pegs it leaves empty.
    start = (1,) * 6
    word = auto.word_from_names(frame_stewart(pegs, 6))
    for w in (word, (auto.state_index("a(1,2)"),) + word):
        assert played(replay_strategy(auto, w, start)) == played(replay_by_definition(auto, w, start))
    assert played(replay_strategy(auto, w, start))[1].startswith("move a(1,2) is illegal")
    # Entries that int() reads as pegs but that are not equal to one hold
    # no disk to legal_moves, so the first move off them is illegal; after
    # a legal first move the configuration holds ints, which do count.
    a12, a23 = auto.state_index("a(1,2)"), auto.state_index("a(2,3)")
    for word, config in [((a12,), ("1", "1")), ((a12,), (1.5, 2)), ((a12, a23), ("1", 2))]:
        result = played(replay_strategy(auto, word, config))
        assert result == played(replay_by_definition(auto, word, config)), (word, config)
    assert played(replay_strategy(auto, (a12,), ("1", "1"))) == (
        [], "move a(1,2) is illegal at configuration ('1', '1')"
    )
    assert played(replay_strategy(auto, (a12, a23), ("1", 2))) == ([(1, 3), (2, 3)], None)
