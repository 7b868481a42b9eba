import dataclasses
import itertools
import json
import os
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from mealygroup import (
    Automaton,
    AutomatonError,
    BudgetError,
    GrowthReport,
    ThresholdReport,
    ThresholdSample,
    apply,
    common_fixed_letter,
    fixed_block_count,
    fixing_threshold,
    format_automaton,
    format_state_word,
    hanoi_automaton,
    is_identity,
    parse_automaton,
    render_growth_csv,
    render_threshold_csv,
    section_closure,
    section_count,
    section_word,
    strict_log2,
    strip_fixed_letter,
    survey,
    threshold_bound,
    threshold_survey,
    word_depth,
)
from mealygroup import _kernel, analysis
from mealygroup.analysis import (
    _scan_lengths,
    _walk_record,
    automaton_symmetries,
    commuting_states,
    inverse_states,
    orbit_count,
)


def w(auto, *names):
    return auto.word_from_names(names)


def depth_count(auto, word):
    """(depth, section count) of ``word`` from the Python walk, which the
    reference survey scan reads."""
    rec = _walk_record(auto, word)
    return rec.depth, len(rec.nodes)


def odometer():
    """Carry machine over {1,2}: not of the dies-or-stays shape of the
    Hanoi family."""
    return Automaton(2, ["add", "id"], [[1, 0], [1, 1]], [[2, 1], [1, 2]])


def all_words(auto, max_len, skip_trivial=False):
    lo = 1 if skip_trivial else 0
    for n in range(max_len + 1):
        yield from itertools.product(range(lo, len(auto.states)), repeat=n)


@st.composite
def machine_and_word(draw, machines, max_len=4):
    auto = draw(machines)
    states = st.integers(0, len(auto.states) - 1)
    return auto, tuple(draw(st.lists(states, max_size=max_len)))


BASILICA = Path(__file__).parent.parent / "perfbench" / "basilica.txt"

both_shapes = st.one_of(oracles.invertible_machines(), oracles.dies_or_stays_machines())

# Brute-force oracles enumerate every input of a length; keep that below this.
BRUTE_INPUTS = 256


# --- closures ---------------------------------------------------------------


def test_closure_single_generator(ha4):
    sc = section_closure(ha4, w(ha4, "a(1,2)"))
    assert sc.count == 2
    assert sc.depth == 1
    assert sc.all_sections == {w(ha4, "a(1,2)"), w(ha4, "e")}


def test_closure_all_trivial(ha4):
    sc = section_closure(ha4, (0, 0))
    assert sc.count == 1
    assert sc.depth == 0


def test_closure_overlapping_pair(ha4):
    sc = section_closure(ha4, w(ha4, "a(1,2)", "a(1,3)"))
    assert (sc.depth, sc.count) == (1, 4)


def test_closure_disjoint_pair_reaches_depth_two(ha4):
    sc = section_closure(ha4, w(ha4, "a(1,2)", "a(3,4)"))
    assert (sc.depth, sc.count) == (2, 4)


@pytest.mark.parametrize("pegs, max_len", [(3, 3), (4, 3)])
def test_closure_matches_brute_enumeration(pegs, max_len):
    auto = hanoi_automaton(pegs)
    for word in all_words(auto, max_len):
        sc = section_closure(auto, word)
        levels = oracles.first_seen_levels(auto, word)
        assert sc.depth == len(levels) - 1
        assert [set(lvl) for lvl in sc.levels] == levels
        # every section at inputs up to depth+2 is in the closure, and
        # nothing else is
        everything = set()
        for length in range(sc.depth + 3):
            everything |= oracles.sections_at_length(auto, word, length)
        assert sc.all_sections == everything


def test_closure_generic_machine_matches_brute():
    auto = odometer()
    for word in all_words(auto, 4):
        d, c = depth_count(auto, word)
        bd, bc = oracles.brute_depth_and_count(auto, word)
        assert (d, c) == (bd, bc)


@settings(max_examples=300, deadline=None)
@given(case=machine_and_word(both_shapes))
def test_closure_matches_brute_on_random_machines(case):
    auto, word = case
    sc = section_closure(auto, word)
    assume(auto.alphabet_size ** (sc.depth + 1) <= BRUTE_INPUTS)
    assert [set(lvl) for lvl in sc.levels] == oracles.first_seen_levels(auto, word)
    assert depth_count(auto, word) == (sc.depth, sc.count)
    assert is_identity(auto, word) == oracles.brute_identity(auto, word, sc.depth + 1)


def test_count_bounded_by_geometric_sum(ha5):
    rng = random.Random(9)
    for _ in range(100):
        word = tuple(rng.randrange(len(ha5.states)) for _ in range(rng.randrange(8)))
        d, c = depth_count(ha5, word)
        assert c <= sum(5**i for i in range(d + 1))


def test_word_depth_examples(ha4):
    assert word_depth(ha4, w(ha4, "a(1,2)")) == 1
    assert word_depth(ha4, w(ha4, "e")) == 0
    assert section_count(ha4, w(ha4, "a(1,2)")) == 2


# --- word problem -----------------------------------------------------------


def test_is_identity_examples(ha4):
    assert is_identity(ha4, (0, 0, 0, 0))
    assert not is_identity(ha4, w(ha4, "a(1,2)"))
    assert is_identity(ha4, w(ha4, "a(1,2)", "a(1,2)"))
    assert is_identity(ha4, ())


@pytest.mark.parametrize("pegs", [3, 4])
def test_is_identity_matches_brute_action_testing(pegs):
    auto = hanoi_automaton(pegs)
    for word in all_words(auto, 3):
        depth = word_depth(auto, word)
        assert is_identity(auto, word) == oracles.brute_identity(auto, word, depth + 1)


def test_is_identity_generic_machine():
    auto = odometer()
    add = (0,)
    assert not is_identity(auto, add + add)
    assert not is_identity(auto, add)
    assert is_identity(auto, (1, 1))
    for word in all_words(auto, 4):
        depth = word_depth(auto, word)
        assert is_identity(auto, word) == oracles.brute_identity(auto, word, depth + 1)


def test_is_identity_requires_invertible():
    auto = Automaton(2, ["s"], [[0, 0]], [[1, 1]])
    with pytest.raises(AutomatonError):
        is_identity(auto, (0,))


# --- fixed letters ----------------------------------------------------------


def test_common_fixed_letter_examples(ha4, ha3):
    assert common_fixed_letter(ha4, w(ha4, "a(1,2)", "a(1,3)")) == 4
    assert common_fixed_letter(ha4, (0, 0)) == 1
    assert common_fixed_letter(ha3, w(ha3, "a(1,2)", "a(1,3)", "a(2,3)")) is None
    assert common_fixed_letter(ha4, ()) == 1


def test_strip_fixed_letter_examples():
    assert strip_fixed_letter((1, 4, 2, 4, 3), 4) == (1, 2, 3)
    assert strip_fixed_letter((4, 4, 4), 4) == ()
    assert strip_fixed_letter((1, 2, 3), 4) == (1, 2, 3)


def test_sections_ignore_letters_fixed_by_every_state(ha4):
    rng = random.Random(17)
    for x in range(1, 5):
        fixing = [s for s in range(len(ha4.states)) if apply(ha4, (s,), (x,)) == (x,)]
        for _ in range(100):
            word = tuple(rng.choice(fixing) for _ in range(rng.randrange(8)))
            v = tuple(rng.randint(1, 4) for _ in range(rng.randrange(12)))
            assert section_word(ha4, word, v) == section_word(
                ha4, word, strip_fixed_letter(v, x)
            )


def test_fixed_block_count_examples(ha3, ha4):
    assert fixed_block_count(ha4, w(ha4, "a(1,2)")) == 1
    assert fixed_block_count(ha4, (0, 0, 0)) == 1
    assert fixed_block_count(ha4, ()) == 0
    assert fixed_block_count(ha3, w(ha3, "a(1,2)", "a(1,3)", "a(2,3)")) == 3


@pytest.mark.parametrize("pegs, max_len", [(3, 5), (4, 4)])
def test_fixed_block_count_is_minimal(pegs, max_len):
    auto = hanoi_automaton(pegs)
    for word in all_words(auto, max_len, skip_trivial=True):
        assert fixed_block_count(auto, word) == oracles.brute_min_blocks(auto, word)


def test_fixed_block_count_rejects_fixless_states():
    auto = Automaton(3, ["r"], [[0, 0, 0]], [[2, 3, 1]])
    with pytest.raises(AutomatonError, match="fixes no letter"):
        fixed_block_count(auto, (0,))


# --- symmetries -------------------------------------------------------------


@pytest.mark.parametrize("pegs, size", [(3, 6), (4, 24), (5, 120)])
def test_hanoi_symmetry_group_size(pegs, size):
    assert len(automaton_symmetries(hanoi_automaton(pegs))) == size


def test_asymmetric_machine_has_identity_only():
    auto = odometer()
    assert automaton_symmetries(auto) == ((0, 1),)


def pairwise_candidates(auto, pi):
    """The candidate filter of the symmetry search before its output-row
    lookup: every pair of states tested letter by letter."""
    k, m, emit0 = len(auto.states), auto.alphabet_size, auto._emit0
    cands = [
        [t for t in range(k) if all(emit0[t][pi[c]] == pi[emit0[s][c]] for c in range(m))]
        for s in range(k)
    ]
    return None if not all(cands) else cands


def assert_candidates_match_pairwise_filter(auto, perms):
    by_row = {}
    for t, row in enumerate(auto._emit0):
        by_row.setdefault(row, []).append(t)
    for pi in perms:
        assert analysis._symmetry_candidates(auto._emit0, by_row, pi) == pairwise_candidates(
            auto, pi
        ), pi


@pytest.mark.parametrize("pegs", [3, 4, 5, 6, 7])
def test_symmetries_match_the_pairwise_filter_on_hanoi(pegs):
    auto = hanoi_automaton(pegs)
    perms = list(itertools.permutations(range(pegs)))
    # The pairwise filter takes about 4 s over all 5,040 permutations of 7
    # letters; a seeded sample of them keeps this test short.
    if pegs == 7:
        perms = random.Random(7).sample(perms, 300)
    assert_candidates_match_pairwise_filter(auto, perms)
    # Every relabelling of the pegs is a symmetry, and nothing else is.
    index = {name: s for s, name in enumerate(auto.states)}
    relabellings = {
        (0,) + tuple(index[f"a({min(pi[i], pi[j]) + 1},{max(pi[i], pi[j]) + 1})"]
                     for i, j in itertools.combinations(range(pegs), 2))
        for pi in itertools.permutations(range(pegs))
    }
    assert set(automaton_symmetries(auto)) == relabellings


@settings(max_examples=150, deadline=None)
@given(auto=both_shapes)
def test_symmetries_match_the_pairwise_filter_on_random_machines(auto):
    assert_candidates_match_pairwise_filter(
        auto, itertools.permutations(range(auto.alphabet_size))
    )
    assert set(automaton_symmetries(auto)) == oracles.brute_symmetries(auto)


def test_duplicate_states_are_interchangeable():
    auto = Automaton(2, ["e1", "e2"], [[0, 0], [1, 1]], [[1, 2], [1, 2]])
    syms = automaton_symmetries(auto)
    assert (1, 0) in syms


@pytest.mark.parametrize("pegs, length", [(3, 3), (3, 4), (4, 2), (4, 3)])
def test_orbit_count_matches_explicit_orbits(pegs, length):
    auto = hanoi_automaton(pegs)
    sigmas = automaton_symmetries(auto)
    allowed = tuple(range(1, len(auto.states)))
    assert orbit_count(allowed, sigmas, length) == oracles.explicit_orbit_count(
        allowed, sigmas, length
    )


def test_canonical_enumeration_hits_every_orbit_once(ha4):
    # The scan with the symmetries alone (no commutation, mirror or
    # reversal rule) walks one word of each orbit, the lex-least.
    sigmas = automaton_symmetries(ha4)
    non_id = tuple(sg for sg in sigmas if sg != tuple(range(7)))
    allowed = tuple(range(1, 7))
    walked = []

    def walk(word):
        walked.append(word)
        return _walk_record(ha4, word)

    _scan_lengths(allowed, walk, non_id, None, 4, mirror=False)
    for n in range(1, 5):
        reps = [word for word in walked if len(word) == n]
        assert len(reps) == len(set(reps)) == orbit_count(allowed, sigmas, n)
        for word in reps:
            assert all(tuple(sg[s] for s in word) >= word for sg in sigmas)


def test_relabeling_preserves_depth_and_count(ha4):
    sigmas = automaton_symmetries(ha4)
    for word in all_words(ha4, 4, skip_trivial=True):
        base = depth_count(ha4, word)
        for sg in sigmas:
            assert depth_count(ha4, tuple(sg[s] for s in word)) == base


def test_inserting_trivial_state_changes_nothing(ha4):
    for word in all_words(ha4, 3, skip_trivial=True):
        base = depth_count(ha4, word)
        for pos in range(len(word) + 1):
            padded = word[:pos] + (0,) + word[pos:]
            assert depth_count(ha4, padded) == base


# --- survey -----------------------------------------------------------------


def test_survey_reproduces_published_small_table(ha4):
    report = survey(ha4, 6)
    assert report.depths() == [1, 2, 2, 3, 4, 4]
    assert report.thetas() == [2, 4, 8, 13, 17, 24]


def test_survey_single_length(ha3):
    report = survey(ha3, 1)
    assert report.thetas() == [2]
    assert report.depths() == [1]


def test_survey_reductions_do_not_change_values(ha4):
    reduced = survey(ha4, 3)
    plain = survey(ha4, 3, exclude_trivial=False, symmetry=False)
    assert reduced.depths() == plain.depths()
    assert reduced.thetas() == plain.thetas()
    assert [r.depth_witness for r in reduced.rows] == [r.depth_witness for r in plain.rows]
    assert [r.theta_witness for r in reduced.rows] == [r.theta_witness for r in plain.rows]
    assert [r.words_examined for r in plain.rows] == [7, 49, 343]


@settings(max_examples=150, deadline=None)
@given(auto=both_shapes)
def test_survey_reductions_do_not_change_values_on_random_machines(auto):
    def values(report):
        return [(r.depth, r.depth_witness, r.theta, r.theta_witness) for r in report.rows]

    reduced = survey(auto, 4)
    plain = survey(auto, 4, exclude_trivial=False, symmetry=False)
    assert values(reduced) == values(plain)


def test_survey_rows_are_monotone_and_witnesses_attain(ha4):
    report = survey(ha4, 5)
    prev_d = prev_t = 0
    for row in report.rows:
        assert row.depth >= prev_d and row.theta >= prev_t
        prev_d, prev_t = row.depth, row.theta
        assert word_depth(ha4, row.depth_witness) == row.depth
        assert section_count(ha4, row.theta_witness) == row.theta
        assert row.words_examined == row.orbits  # one representative per orbit


def test_survey_is_deterministic_across_jobs(ha4):
    r1 = survey(ha4, 4, jobs=1)
    r2 = survey(ha4, 4, jobs=2)
    assert render_growth_csv(r1, ha4) == render_growth_csv(r2, ha4)


def test_survey_checkpoint_resume(tmp_path, ha4):
    ck = tmp_path / "scan.ckpt"
    first = survey(ha4, 2, checkpoint=ck)
    extended = survey(ha4, 4, checkpoint=ck)
    assert extended.depths()[:2] == first.depths()
    assert [r.words_examined for r in extended.rows] == [1, 3, 12, 60]
    # a different option set must not reuse the file
    with pytest.raises(AutomatonError, match="different automaton or option"):
        survey(ha4, 2, checkpoint=ck, symmetry=False)


def test_survey_checkpoint_fingerprint_is_stable(tmp_path, ha4):
    # Checkpoints written by earlier versions must still resume: the header
    # of a default 4-peg survey keeps these exact bytes.
    ck = tmp_path / "scan.ckpt"
    survey(ha4, 2, checkpoint=ck)
    assert ck.read_text().splitlines()[0] == (
        '{"fingerprint": "4ebd4fc94f8ea3dabb3c517e968386c9e8da3d83f3cddeb47bc32e49d52ba82a"}'
    )


def test_survey_within_its_checkpoint_scans_nothing(tmp_path, ha4, monkeypatch):
    ck = tmp_path / "scan.ckpt"
    whole = survey(ha4, 4, checkpoint=ck)
    monkeypatch.setattr(analysis, "_scan_all", lambda *args: pytest.fail("scanned again"))
    # Rows read back have every value but the closures, which no scan computed.
    recorded = [dataclasses.replace(row, closures=None) for row in whole.rows]
    assert all(row.closures for row in whole.rows)
    assert list(survey(ha4, 3, checkpoint=ck).rows) == recorded[:3]
    assert list(survey(ha4, 4, checkpoint=ck).rows) == recorded


def test_survey_resumes_from_a_torn_checkpoint(tmp_path, ha4):
    ck = tmp_path / "scan.ckpt"
    whole = survey(ha4, 4, checkpoint=ck)
    data = ck.read_bytes()
    ck.write_bytes(data[:-7])  # a crash in the middle of the last append
    resumed = survey(ha4, 4, checkpoint=ck)
    assert render_growth_csv(resumed, ha4) == render_growth_csv(whole, ha4)
    # The torn line was cut off and round 4 ran again.
    lines = data.splitlines(keepends=True)
    redone = ck.read_bytes().splitlines(keepends=True)
    assert redone[:-1] == lines[:-1] and json.loads(redone[-1])["n"] == 4
    ck.write_bytes(lines[0] + lines[1][:-7] + b"\n" + b"".join(lines[2:]))
    with pytest.raises(ValueError):
        survey(ha4, 4, checkpoint=ck)  # damage before the last line is not a torn append


def test_survey_budget_gate(ha4):
    with pytest.raises(BudgetError, match="long_run"):
        survey(ha4, 12)
    # long_run at small n is accepted and harmless
    assert survey(ha4, 2, long_run=True).thetas() == [2, 4]


def test_survey_input_validation(ha4):
    with pytest.raises(ValueError):
        survey(ha4, 0)
    broken = Automaton(2, ["s"], [[0, 0]], [[1, 1]])
    with pytest.raises(AutomatonError):
        survey(broken, 2)


# A checkpoint of ``table --pegs 4 --max-n 4 --long-run`` from before the
# scan counted closures apart from orbits.
OLD_CHECKPOINT = """\
{"fingerprint": "4ebd4fc94f8ea3dabb3c517e968386c9e8da3d83f3cddeb47bc32e49d52ba82a"}
{"n": 1, "depth": 1, "depth_witness": [1], "theta": 2, "theta_witness": [1], "examined": 1, "orbits": 1, "seconds": 0.0007063010000365466}
{"n": 2, "depth": 2, "depth_witness": [1, 6], "theta": 4, "theta_witness": [1, 2], "examined": 3, "orbits": 3, "seconds": 0.0007063010000365466}
{"n": 3, "depth": 2, "depth_witness": [1, 1, 6], "theta": 8, "theta_witness": [1, 2, 6], "examined": 12, "orbits": 12, "seconds": 0.0007063010000365466}
{"n": 4, "depth": 3, "depth_witness": [1, 2, 3, 6], "theta": 13, "theta_witness": [1, 2, 5, 6], "examined": 60, "orbits": 60, "seconds": 0.0007063010000365466}
"""


def test_an_older_checkpoint_resumes_unchanged(tmp_path, ha4):
    # The commutation rule is not in the fingerprint: it changes no row.
    for commutation, closures in [(False, [1, 3, 12, 60, 336, 1030]),
                                  (True, [1, 3, 11, 52, 273, 734])]:
        ck = tmp_path / f"scan-{commutation}.ckpt"
        ck.write_text(OLD_CHECKPOINT)
        resumed = survey(ha4, 6, checkpoint=ck, commutation=commutation, mirror=False)
        lines = ck.read_text().splitlines(keepends=True)
        assert "".join(lines[:5]) == OLD_CHECKPOINT
        assert [json.loads(ln)["n"] for ln in lines[5:]] == [5, 6]
        assert render_growth_csv(resumed, ha4) == render_growth_csv(survey(ha4, 6), ha4)
        # The recorded rows keep their seconds; the scan that checked them
        # counted their closures.
        assert [row.seconds for row in resumed.rows[:4]] == [0.0007063010000365466] * 4
        assert [row.closures for row in resumed.rows] == closures


def test_closures_at_the_last_length_take_one_word_per_reversed_pair(ha4):
    for jobs in (1, 2):
        rows = survey(ha4, 8, jobs=jobs, commutation=False, mirror=False).rows
        assert [row.words_examined for row in rows] == [1, 3, 12, 60, 336, 1968, 11712, 70080]
        assert [row.closures for row in rows] == [1, 3, 12, 60, 336, 1968, 11712, 35312]
        # The commutation rule prunes at every length, not only the last.
        rows = survey(ha4, 8, jobs=jobs, mirror=False).rows
        assert [row.words_examined for row in rows] == [1, 3, 12, 60, 336, 1968, 11712, 70080]
        assert [row.closures for row in rows] == [1, 3, 11, 52, 273, 1475, 8023, 20798]


@settings(max_examples=60, deadline=None)
@given(auto=both_shapes, reversal=st.booleans(), symmetry=st.booleans())
def test_words_examined_is_the_orbit_count(auto, reversal, symmetry):
    report = survey(auto, 4, symmetry=symmetry, reversal=reversal)
    allowed = [s for s in range(len(auto.states)) if s not in auto._trivials]
    sigmas = automaton_symmetries(auto) if symmetry else (tuple(range(len(auto.states))),)
    orbits = [orbit_count(allowed, sigmas, n) for n in range(1, 5)]
    column = [int(line.split(",")[-2]) for line in render_growth_csv(report, auto).splitlines()[1:]]
    assert [row.words_examined for row in report.rows] == column == orbits


# --- the reversal test ------------------------------------------------------


def test_inverse_states_is_the_identity_on_hanoi_and_none_on_basilica():
    # 23 pegs: 254 states, so the search recurses 255 levels deep.
    for pegs in (3, 4, 5, 6, 23):
        assert inverse_states(hanoi_automaton(pegs)) == tuple(range(pegs * (pegs - 1) // 2 + 1))
    assert inverse_states(parse_automaton(BASILICA.read_text())) is None


@settings(max_examples=200, deadline=None)
@given(auto=st.one_of(both_shapes, oracles.inverse_closed_machines(), oracles.commuting_machines()))
def test_inverse_states_finds_iota_whenever_one_exists(auto):
    assume(len(auto.states) <= 6)
    maps = oracles.brute_inverse_states(auto)
    iota = inverse_states(auto)
    if maps:
        assert iota in maps
    else:
        assert iota is None


def test_both_state_map_searches_give_up_past_their_budget(monkeypatch, ha4):
    # inverse_states enters 8 nodes on Hanoi-4, one per state and the leaf.
    monkeypatch.setattr(analysis, "_SYMMETRY_SEARCH_BUDGET", 8)
    assert inverse_states(ha4) == tuple(range(7))
    monkeypatch.setattr(analysis, "_SYMMETRY_SEARCH_BUDGET", 7)
    assert inverse_states(ha4) is None
    assert automaton_symmetries(ha4) == (tuple(range(7)),)


def test_both_state_map_searches_give_up_past_the_recursion_limit():
    # The searches recurse once per state: 1,200 states pass Python's limit.
    auto = oracles.cycle_machine(1200)
    assert automaton_symmetries(auto) == (tuple(range(1200)),)
    assert inverse_states(auto) is None


def values_to(auto, n_max, **options):
    """Depth, theta and witnesses of every row of surveys to each bound up
    to ``n_max``: the reversal test applies to the last length only."""
    return [
        (r.depth, r.depth_witness, r.theta, r.theta_witness)
        for n in range(1, n_max + 1)
        for r in survey(auto, n, **options).rows[-1:]
    ]


@pytest.mark.parametrize("pegs", [3, 4, 5])
def test_reversal_keeps_every_value_on_hanoi(pegs):
    auto = hanoi_automaton(pegs)
    assert values_to(auto, 6) == values_to(auto, 6, reversal=False)


@settings(max_examples=25, deadline=None)
@given(auto=oracles.inverse_closed_machines(), symmetry=st.booleans())
def test_reversal_keeps_every_value_on_inverse_closed_machines(auto, symmetry):
    iota = inverse_states(auto)
    assert iota is not None
    for s in range(len(auto.states)):
        assert all(
            apply(auto, (iota[s], s), v) == v for v in oracles.all_letter_words(auto.alphabet_size, 3)
        )
    assert values_to(auto, 6, symmetry=symmetry) == values_to(
        auto, 6, symmetry=symmetry, reversal=False
    )


def visited_words(auto, n, comm=None):
    """The words of length ``n`` that the reference scan to ``n`` computes
    a closure for, with the reversal test and the commutation masks
    ``comm``, and without the mirror rule, which leaves out whole classes
    and folds their values in."""
    k = len(auto.states)
    allowed = tuple(s for s in range(k) if s not in auto._trivials)
    group = tuple(sg for sg in automaton_symmetries(auto) if sg != tuple(range(k)))
    visited, empty = set(), _walk_record(auto, ())
    walk = lambda word: visited.add(tuple(word)) or empty
    _scan_lengths(allowed, walk, group, inverse_states(auto), n, comm=comm, mirror=False)
    return allowed, {word for word in visited if len(word) == n}


@pytest.mark.parametrize("pegs, n_max", [(3, 6), (4, 6), (5, 3)])
def test_every_reversal_class_has_a_visited_word(pegs, n_max):
    auto = hanoi_automaton(pegs)
    sigmas = automaton_symmetries(auto)
    for n in range(1, n_max + 1):
        allowed, visited = visited_words(auto, n)
        # iota is the identity, which commutes with every symmetry, so a
        # class is one orbit or two, and the test leaves one word of each.
        for members in oracles.reversal_classes(allowed, sigmas, inverse_states(auto), n):
            assert len(visited & set(members)) == 1, members[0]


@settings(max_examples=25, deadline=None)
@given(auto=oracles.inverse_closed_machines())
def test_every_reversal_class_has_a_visited_word_on_inverse_closed_machines(auto):
    sigmas = automaton_symmetries(auto)
    for n in range(1, 5):
        allowed, visited = visited_words(auto, n)
        for members in oracles.reversal_classes(allowed, sigmas, inverse_states(auto), n):
            assert visited & set(members), members[0]


# --- the commutation rule ---------------------------------------------------


def commuting_pairs(auto):
    """The pairs of states that :func:`commuting_states` derives, over the
    states that are not do-nothing."""
    allowed = [s for s in range(len(auto.states)) if s not in auto._trivials]
    comm = commuting_states(auto, allowed) or [0] * len(auto.states)
    return {(p, q) for p in allowed for q in allowed if comm[p] >> q & 1}


def test_commuting_states_are_the_disjoint_peg_pairs():
    assert commuting_pairs(parse_automaton(BASILICA.read_text())) == set()
    for pegs in (3, 4):
        auto = hanoi_automaton(pegs)
        # a(i,j) moves a disk between pegs i and j.
        pegs_of = {s: set(auto.states[s][2:-1].split(",")) for s in range(1, len(auto.states))}
        disjoint = {(p, q) for p in pegs_of for q in pegs_of if not pegs_of[p] & pegs_of[q]}
        assert commuting_pairs(auto) == disjoint
        assert len(disjoint) == {3: 0, 4: 6}[pegs]  # three unordered pairs on 4 pegs


def test_commuting_states_on_a_small_machine():
    # p swaps letters 1, 2 and fixes 3, dying on all three; r cycles them
    # and dies on them too, and q swaps 4, 5.  On letter 6 p and q move to
    # p and r stays.  p and q commute, their sections at 6 being equal; p
    # and r do not, and so neither do q and r, whose sections at 6 are p
    # and r.
    nxt = [[0] * 6, [0, 0, 0, 1, 1, 1], [2, 2, 2, 0, 0, 1], [0, 0, 0, 3, 3, 3]]
    out = [[1, 2, 3, 4, 5, 6], [2, 1, 3, 4, 5, 6], [1, 2, 3, 5, 4, 6], [2, 3, 1, 4, 5, 6]]
    auto = Automaton(6, ["e", "p", "q", "r"], nxt, out)
    assert commuting_pairs(auto) == {(1, 2), (2, 1)}
    assert values_to(auto, 5) == values_to(auto, 5, commutation=False)


# p and q act on each letter as if in either order, and their sections at
# letter 3 are (q, q).  Below that equal pair the swap of p and q is not
# kept (next(q, q(1)) = q but next(q, 1) = p), so p and q do not commute:
# q.p.q.q has 10 sections, and p.q.q.q, the other order, 9.
EQUAL_SECTIONS = """\
alphabet 3
states p q
p 1 -> p 1
p 2 -> p 2
p 3 -> q 3
q 1 -> p 2
q 2 -> q 1
q 3 -> q 3
"""


@pytest.mark.parametrize("scan", ["kernel", "python"])
def test_an_equal_pair_of_sections_commutes_only_when_it_keeps_the_swap(scan, monkeypatch):
    if scan == "python":
        monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    auto = parse_automaton(EQUAL_SECTIONS)
    assert commuting_pairs(auto) == set()
    row = survey(auto, 4).rows[-1]
    assert (row.theta, format_state_word(auto, row.theta_witness)) == (10, "q.p.q.q")
    assert section_count(auto, row.theta_witness) == 10


def test_every_reduction_keeps_every_row_on_every_two_state_machine_over_three_letters():
    # All 2,304 invertible machines of 2 states over 3 letters, to n = 6:
    # the rows with every reduction (twins included) and with none agree,
    # witnesses included.  CI runs two larger sets the same way
    # (tests/exhaustive_reductions.py).
    differ = [format_automaton(auto) for auto in oracles.every_invertible_machine(2, 3)
              if oracles.rows_differ(auto, 6)]
    assert differ == []


def test_commuting_states_stop_past_64_states():
    # s0 swaps the letters, every other state acts trivially but moves on,
    # so all of them commute; past 64 states no masks are made.
    for k in (64, 65):
        names = [f"s{i}" for i in range(k)]
        big = Automaton(2, names, [[(i + 1) % k] * 2 for i in range(k)], [[2, 1]] + [[1, 2]] * (k - 1))
        comm = commuting_states(big, range(k))
        assert comm is None if k == 65 else comm[0] == 2**64 - 2


@pytest.mark.parametrize("pegs", [3, 4, 5])
def test_commutation_keeps_every_value_on_hanoi(pegs):
    auto = hanoi_automaton(pegs)
    assert values_to(auto, 6) == values_to(auto, 6, commutation=False)


@settings(max_examples=25, deadline=None)
@given(auto=oracles.commuting_machines())
def test_commutation_keeps_every_value_on_commuting_machines(auto):
    assert values_to(auto, 6) == values_to(auto, 6, commutation=False)


def test_every_trace_class_has_a_visited_word(ha4):
    allowed = tuple(range(1, 7))
    comm = commuting_states(ha4, allowed)
    sigmas, pairs = automaton_symmetries(ha4), commuting_pairs(ha4)
    for n in range(1, 7):
        _, visited = visited_words(ha4, n, comm)
        for members in oracles.trace_classes(allowed, sigmas, pairs, inverse_states(ha4), n):
            assert visited & set(members), members[0]
        if n == 6:
            # The rule leaves fewer words than the symmetries and the
            # reversal test alone.
            assert len(visited) < len(visited_words(ha4, n)[1])


# --- the mirror rule --------------------------------------------------------


def dfs_states(auto, allowed, max_len):
    """Every word v over ``allowed`` of at most ``max_len`` states, with
    what the survey scan's DFS appends by: ``state``, the symmetries that
    fix v and v's forbidden set of the commutation rule, and ``after(x)``,
    the same for v x."""
    group = automaton_symmetries(auto)
    comm = commuting_states(auto, allowed)
    for length in range(max_len + 1):
        for v in itertools.product(allowed, repeat=length):
            tying = [sg for sg in group if all(sg[s] == s for s in v)]
            forbid = 0
            for s in v:
                forbid = analysis._forbid(comm, forbid, s)
            yield v, (tying, forbid), lambda x, tying=tying, forbid=forbid: (
                [sg for sg in tying if sg[x] == x], analysis._forbid(comm, forbid, x))


def mirror_pairs(auto, allowed, max_len):
    """Every pair (v x, v) of words over ``allowed``, v of at most
    ``max_len`` states, that meets the survey scan's mirror condition: v x
    has v's closure automaton (the child table of its walk record), every
    symmetry that fixes v fixes x, and x leaves the forbidden set of the
    commutation rule as it is."""
    for v, state, after in dfs_states(auto, allowed, max_len):
        table = _walk_record(auto, v).children
        for x in allowed:
            if after(x) == state and _walk_record(auto, v + (x,)).children == table:
                yield v + (x,), v


def twin_pairs(auto, allowed, max_len):
    """Every pair (v s, v t) of words over ``allowed``, v of at most
    ``max_len`` states and s before t in ``allowed``, that meets the survey
    scan's twin condition: v s and v t have the same closure automaton,
    each symmetry that fixes v fixes both s and t or neither, and s and t
    leave the same forbidden set of the commutation rule."""
    for v, _, after in dfs_states(auto, allowed, max_len):
        tables = [_walk_record(auto, v + (x,)).children for x in allowed]
        for i, j in itertools.combinations(range(len(allowed)), 2):
            s, t = allowed[i], allowed[j]
            if after(s) == after(t) and tables[i] == tables[j]:
                yield v + (s,), v + (t,)


def assert_pairs_keep_depth_and_count(pairs, auto, exclude_trivial, max_len, seed):
    """For every pair (a, b) that ``pairs`` (:func:`mirror_pairs` or
    :func:`twin_pairs`) gives and two seeded suffixes u of up to two
    states, a u and b u have the same depth and count by brute force
    (pairs whose brute force would read more than BRUTE_INPUTS inputs are
    left out).  Returns the pairs checked."""
    allowed = [s for s in range(len(auto.states)) if not (exclude_trivial and s in auto._trivials)]
    rng = random.Random(seed)
    checked = 0
    for a, b in pairs(auto, allowed, max_len):
        for u in [tuple(rng.choices(allowed, k=rng.randrange(3))) for _ in range(2)]:
            if auto.alphabet_size ** (depth_count(auto, a + u)[0] + 1) > BRUTE_INPUTS:
                continue
            assert oracles.brute_depth_and_count(auto, a + u) == \
                oracles.brute_depth_and_count(auto, b + u), (a, b, u)
            checked += 1
    return checked


@pytest.mark.parametrize("pegs, max_len", [(3, 3), (4, 2), (5, 2)])
@pytest.mark.parametrize("exclude_trivial", [True, False])
def test_a_mirror_keeps_depth_and_count_below_it_on_hanoi(pegs, max_len, exclude_trivial):
    # On Hanoi machines a(i,j) after a(i,j) is a mirror, and so is the
    # do-nothing state when it is allowed.
    assert assert_pairs_keep_depth_and_count(mirror_pairs, hanoi_automaton(pegs), exclude_trivial,
                                             max_len, pegs) > 0


@settings(max_examples=60, deadline=None)
@given(
    auto=st.one_of(both_shapes, oracles.inverse_closed_machines(), oracles.commuting_machines()),
    exclude_trivial=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_mirror_keeps_depth_and_count_below_it_on_random_machines(auto, exclude_trivial, seed):
    assert_pairs_keep_depth_and_count(mirror_pairs, auto, exclude_trivial, 2, seed)


def test_a_twin_keeps_depth_and_count_below_it_on_basilica():
    # Up to 5 letters, Basilica's only twins are a and b, the children of
    # the empty word: a u and b u agree for every u of up to 4 letters.
    auto = parse_automaton(BASILICA.read_text())
    assert list(twin_pairs(auto, [0, 1], 4)) == [((0,), (1,))]
    for u in itertools.chain.from_iterable(itertools.product((0, 1), repeat=n) for n in range(5)):
        assert oracles.brute_depth_and_count(auto, (0, *u)) == \
            oracles.brute_depth_and_count(auto, (1, *u)), u


def test_a_twin_keeps_depth_and_count_below_it_on_every_two_state_machine_over_two_letters():
    # Twins are rare on the random machines below; 12 of these 64 have some.
    machines = list(oracles.every_invertible_machine(2, 2))
    checked = [assert_pairs_keep_depth_and_count(twin_pairs, auto, True, 2, 0) for auto in machines]
    assert sum(map(bool, checked)) == 12


@settings(max_examples=60, deadline=None)
@given(
    auto=st.one_of(both_shapes, oracles.inverse_closed_machines(), oracles.commuting_machines()),
    exclude_trivial=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_twin_keeps_depth_and_count_below_it_on_random_machines(auto, exclude_trivial, seed):
    assert_pairs_keep_depth_and_count(twin_pairs, auto, exclude_trivial, 2, seed)


# s0 and s1 act as the identity, and a symmetry swaps them with the
# letters; s2 swaps the letters and moves to s1 or s0.
SWAPPED_IDENTITIES = """\
alphabet 2
states s0 s1 s2
s0 1 -> s0 1
s0 2 -> s1 2
s1 1 -> s0 1
s1 2 -> s1 2
s2 1 -> s1 2
s2 2 -> s0 1
"""


@pytest.mark.parametrize("scan", ["kernel", "python"])
def test_a_twin_needs_its_siblings_tying_symmetries(scan, monkeypatch):
    # s2.s0 and s2.s2 have one closure automaton and no forbidden states,
    # but the symmetry ties on s2.s2 only: it is no twin, and the scan goes
    # below it.
    if scan == "python":
        monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    auto = parse_automaton(SWAPPED_IDENTITIES)
    assert automaton_symmetries(auto) == ((0, 1, 2), (1, 0, 2))
    assert _walk_record(auto, (2, 0)).children == _walk_record(auto, (2, 2)).children
    assert [row.closures for row in survey(auto, 6).rows] == [2, 5, 10, 13, 15, 15]


def scan_outputs(auto, n_max, tmp_path, **options):
    """(rows without closures and seconds, checkpoint records without
    seconds, closures per length) of a survey that writes a checkpoint."""
    ck = tmp_path / f"scan-{len(list(tmp_path.iterdir()))}.ckpt"
    report = survey(auto, n_max, checkpoint=ck, **options)
    records = [analysis._values(json.loads(line)) for line in ck.read_text().splitlines()]
    rows = [dataclasses.replace(row, closures=None, seconds=None) for row in report.rows]
    return rows, records, [row.closures for row in report.rows]


def mirror_closures(auto, n_max, tmp_path, **options):
    """The closures per length of the survey with the mirror rule (mirrors
    and twins) and of the survey without it, after
    checking that its rows, witnesses and checkpoint records are those of
    the survey without it, and its closures no more, at jobs 1, 2 and 4,
    and that its closures do not depend on jobs."""
    rows, records, plain = scan_outputs(auto, n_max, tmp_path, mirror=False, **options)
    counts = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 4)  # survey caps jobs at the CPU count
        for jobs in (1, 2, 4):
            *same, closures = scan_outputs(auto, n_max, tmp_path, jobs=jobs, **options)
            assert same == [rows, records], jobs
            assert all(a <= b for a, b in zip(closures, plain)), (closures, plain)
            counts.add(tuple(closures))
    assert len(counts) == 1, counts
    return list(counts.pop()), plain


@pytest.mark.parametrize("pegs, n_max", [(3, 11), (4, 8), (5, 6)])
def test_the_mirror_rule_changes_only_closures_on_hanoi(pegs, n_max, tmp_path):
    closures, plain = mirror_closures(hanoi_automaton(pegs), n_max, tmp_path)
    assert closures != plain  # the rule fires


def test_the_mirror_rule_changes_only_closures_on_basilica(tmp_path):
    auto = parse_automaton(BASILICA.read_text())
    closures, plain = mirror_closures(auto, 13, tmp_path)
    assert plain == [2**n for n in range(1, 14)]
    # No mirror, but the root's children a and b are twins: the scan
    # computes no closure below b.
    assert closures == BASILICA_CLOSURES


BASILICA_CLOSURES = [2] + [2**n for n in range(1, 13)]


@pytest.mark.parametrize("scan", ["kernel", "python"])
def test_twins_halve_the_basilica_scan(scan, monkeypatch):
    if scan == "python":
        monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    auto = parse_automaton(BASILICA.read_text())
    for jobs in (1, 2):
        assert [row.closures for row in survey(auto, 13, jobs=jobs).rows] == BASILICA_CLOSURES


@pytest.mark.parametrize("options", [{"symmetry": False}, {"exclude_trivial": False},
                                     {"symmetry": False, "exclude_trivial": False}])
@pytest.mark.parametrize("pegs, n_max", [(3, 8), (4, 6)])
def test_the_mirror_rule_changes_only_closures_without_the_other_reductions(
        pegs, n_max, options, tmp_path):
    mirror_closures(hanoi_automaton(pegs), n_max, tmp_path, **options)


@settings(max_examples=40, deadline=None)
@given(
    auto=st.one_of(both_shapes, oracles.inverse_closed_machines(), oracles.commuting_machines()),
    exclude_trivial=st.booleans(),
    symmetry=st.booleans(),
)
def test_the_mirror_rule_changes_only_closures_on_random_machines(auto, exclude_trivial, symmetry,
                                                                  tmp_path_factory):
    mirror_closures(auto, 5, tmp_path_factory.mktemp("scan"), exclude_trivial=exclude_trivial,
                    symmetry=symmetry)


def test_the_python_scan_folds_mirrors_as_the_kernel_does(tmp_path, monkeypatch):
    # The same checks on the Python scan (no compiler), whose closures must
    # be the kernel's.
    cases = [(hanoi_automaton(3), 9), (hanoi_automaton(4), 6)]
    compiled = [mirror_closures(auto, n_max, tmp_path) for auto, n_max in cases]
    monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    assert [mirror_closures(auto, n_max, tmp_path) for auto, n_max in cases] == compiled


def test_closures_with_the_mirror_rule_on_hanoi(ha3, ha4):
    for jobs in (1, 2):
        rows = survey(ha4, 8, jobs=jobs).rows
        assert [row.closures for row in rows] == [1, 3, 8, 39, 213, 1155, 6294, 13340]
        rows = survey(ha3, 12, jobs=jobs).rows
        assert [row.closures for row in rows] == [
            1, 2, 3, 9, 27, 78, 234, 693, 2073, 6189, 18522, 17847
        ]


# 5 pegs have 15 commuting pairs of states, each state in three of them,
# so the commutation rule's forbidden set carries states past one letter:
# without the carry the closures grow (3,916, 32,041 and 108,774 at n = 6,
# 7 and 8 on the kernel), while the rows stay the same.
# The Python scan stops at n = 6, where it takes a fraction of a second.
HANOI5_CLOSURES = {
    "kernel": [1, 3, 10, 63, 474, 3740, 30167, 101473],
    "python": [1, 3, 10, 63, 474, 1612],
}


@pytest.mark.parametrize("scan", ["kernel", "python"])
def test_closures_with_the_commutation_rule_on_hanoi5(scan, ha5, monkeypatch):
    if scan == "python":
        monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    elif shutil.which(_kernel._CC) is None:
        pytest.skip(f"no C compiler ({_kernel._CC}) on PATH")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    closures = HANOI5_CLOSURES[scan]
    for jobs in (1, 2):
        assert [row.closures for row in survey(ha5, len(closures), jobs=jobs).rows] == closures


def test_growth_csv_shape(ha4):
    report = survey(ha4, 2)
    text = render_growth_csv(report, ha4)
    lines = text.splitlines()
    assert lines[0] == "n,depth,theta,depth_witness,theta_witness,words_examined,seconds"
    assert len(lines) == 3
    assert '"a(1,2)"' in lines[1]  # names contain commas, so fields are quoted
    # the seconds column stays empty: output is byte-identical across runs
    assert all(line.endswith(",") for line in lines[1:])
    empty = render_growth_csv(GrowthReport(rows=()), ha4)
    assert empty == "n,depth,theta,depth_witness,theta_witness,words_examined,seconds\n"


# --- fixing thresholds ------------------------------------------------------


def test_strict_log2_values():
    assert [strict_log2(n) for n in (1, 2, 3, 4, 8, 9, 16)] == [1, 2, 2, 3, 4, 4, 5]
    with pytest.raises(ValueError):
        strict_log2(0)


def test_threshold_bound_values():
    assert threshold_bound(3, 8) == 9 * 4
    assert threshold_bound(4, 16) == 144 * 25
    assert threshold_bound(5, 16) == 144 * 25 * 125
    with pytest.raises(ValueError):
        threshold_bound(2, 4)


def test_fixing_threshold_frozen_cases(ha4):
    for s in range(1, 7):
        assert fixing_threshold(ha4, (s,)) == 0
    assert fixing_threshold(ha4, w(ha4, "a(1,2)", "a(3,4)")) == 1
    assert fixing_threshold(ha4, ()) == 0


def test_fixing_threshold_matches_direct_level_scan(ha4):
    rng = random.Random(23)
    for _ in range(25):
        word = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(1, 5)))
        t_star = fixing_threshold(ha4, word)
        assert t_star is not None
        for length in range(7):
            bad = any(
                common_fixed_letter(ha4, sec) is None
                for sec in oracles.sections_at_length(ha4, word, length)
            )
            if length >= t_star:
                assert not bad
        if t_star > 0:
            assert any(
                common_fixed_letter(ha4, sec) is None
                for sec in oracles.sections_at_length(ha4, word, t_star - 1)
            )


@settings(max_examples=300, deadline=None)
@given(case=machine_and_word(both_shapes))
def test_fixing_threshold_matches_direct_scan_on_random_machines(case):
    auto, word = case
    m = auto.alphabet_size
    reach = 0
    while m ** (reach + 1) <= BRUTE_INPUTS:
        reach += 1
    t_star = fixing_threshold(auto, word)
    first = {}
    bad = []
    for length in range(reach + 1):
        sections = frozenset(oracles.sections_at_length(auto, word, length))
        if sections in first:
            # The sets of sections at each input length go on periodically
            # from here, so the scan decides the threshold.
            start = first[sections]
            if any(bad[start:]):
                assert t_star is None
            else:
                assert t_star == max((n for n in range(start) if bad[n]), default=-1) + 1
            return
        first[sections] = length
        bad.append(not all(oracles.block_has_common_fixed(auto, sec) for sec in sections))
    if t_star is not None:
        assert not any(bad[t_star:])
        assert t_star == 0 or t_star > reach + 1 or bad[t_star - 1]


def test_fixing_threshold_unbounded_when_no_letter_is_ever_fixed():
    auto = Automaton(3, ["r"], [[0, 0, 0]], [[2, 3, 1]])
    assert fixing_threshold(auto, (0,)) is None
    report = threshold_survey(auto, [2], 5, seed=1)
    assert not report.all_passed
    assert all(s.t_star is None for s in report.samples)


def test_threshold_survey_deterministic_and_bounded(ha4):
    a = threshold_survey(ha4, [4, 8], 30, seed=42)
    b = threshold_survey(ha4, [4, 8], 30, seed=42)
    assert a == b
    assert a.all_passed
    assert all(s.t_star <= s.bound for s in a.samples)
    assert set(a.max_by_length()) == {4, 8}
    # samples avoid the do-nothing state
    assert all(0 not in s.word for s in a.samples)


def test_threshold_three_pegs_logarithmic(ha3):
    report = threshold_survey(ha3, [4, 8, 16], 60, seed=2)
    for sample in report.samples:
        assert sample.t_star <= strict_log2(sample.length) + 1


def test_threshold_maximum_with_unbounded_and_bounded_samples():
    samples = [
        ThresholdSample(4, (1,), None, 9, False),
        ThresholdSample(4, (2,), 3, 9, True),
        ThresholdSample(8, (2,), 2, 9, True),
        ThresholdSample(8, (1,), None, 9, False),
        ThresholdSample(16, (2,), 5, 9, True),
        ThresholdSample(16, (2,), 1, 9, True),
    ]
    assert ThresholdReport(tuple(samples), 0).max_by_length() == {4: None, 8: None, 16: 5}


def test_threshold_survey_words_and_csv_equal_those_of_one_draw_per_word(ha4):
    # Each length's letters are drawn in one call, which is the random
    # stream of one draw per word.
    lengths, samples = [4, 8, 16, 32], 200
    rng = random.Random(0)
    allowed = [s for s in range(len(ha4.states)) if s not in ha4._trivials]
    rows = []
    for n in lengths:
        bound = threshold_bound(ha4.alphabet_size, n)
        for _ in range(samples):
            word = tuple(rng.choices(allowed, k=n))
            t_star = fixing_threshold(ha4, word)
            rows.append(ThresholdSample(n, word, t_star, bound,
                                        t_star is not None and t_star <= bound))
    expected = ThresholdReport(tuple(rows), 0)
    report = threshold_survey(ha4, lengths, samples, seed=0)
    assert [s.word for s in report.samples] == [s.word for s in expected.samples]
    assert render_threshold_csv(report, ha4).encode() == render_threshold_csv(expected, ha4).encode()


def test_threshold_csv_shape(ha4):
    report = threshold_survey(ha4, [4], 3, seed=0)
    lines = render_threshold_csv(report, ha4).splitlines()
    assert lines[0] == "n,word,t_star,bound,pass"
    assert len(lines) == 4
    assert all(line.endswith(",1296,true") for line in lines[1:])
