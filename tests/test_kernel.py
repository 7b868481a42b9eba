"""The compiled kernels against their Python reference twins: the survey
scan, and the closure record and fixing-threshold loop that the queries
read; and the fallback to the references when no kernel can be used."""

import contextlib
import functools
import io
import itertools
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mealygroup import (
    Automaton,
    fixing_threshold,
    frame_stewart,
    hanoi_automaton,
    is_identity,
    parse_automaton,
    render_growth_csv,
    section_closure,
    section_count,
    survey,
    word_depth,
)
from mealygroup import _kernel, analysis
from mealygroup.analysis import (
    BudgetError,
    _canonical_prefixes,
    _period_threshold,
    _scan_lengths,
    _walk_record,
    automaton_symmetries,
    commuting_states,
    inverse_states,
    word_problem,
)
from mealygroup.cli import main
from oracles import (
    brute_depth_and_count,
    commuting_machines,
    dies_or_stays_machines,
    inverse_closed_machines,
    invertible_machines,
)

BASILICA = Path(__file__).parent.parent / "perfbench" / "basilica.txt"

requires_cc = pytest.mark.skipif(
    shutil.which(_kernel._CC) is None,
    reason=f"no C compiler ({_kernel._CC}) on PATH: surveys run the Python reference scan",
)


def twins(auto, n_max, exclude_trivial=True, symmetry=True, reversal=True, commutation=True,
          mirror=True, walk=None):
    """(allowed, symmetries, compiled scan, reference scan) as survey() sets
    them up.  ``walk`` is a cached closure walk of ``auto`` to share."""
    k = len(auto.states)
    identity = tuple(range(k))
    trivials = auto._trivials if exclude_trivial else ()
    allowed = tuple(s for s in range(k) if s not in trivials)
    sigmas = automaton_symmetries(auto) if symmetry else (identity,)
    sigmas = tuple(sg for sg in sigmas if sg != identity)
    iota = inverse_states(auto) if reversal else None
    comm = commuting_states(auto, allowed) if commutation else None
    compiled = _kernel.compiled_scan(auto._next, auto._emit0, allowed, sigmas, iota, n_max, comm,
                                     mirror)
    assert compiled is not None, "the kernel failed to build or load"
    # Every bound re-scans the same words: the walk runs once per word.
    walk = walk or functools.lru_cache(maxsize=None)(functools.partial(_walk_record, auto))
    reference = functools.partial(_scan_lengths, allowed, walk, sigmas, iota, n_max, comm=comm,
                                  mirror=mirror)
    return allowed, sigmas, compiled, reference


def assert_parity(auto, n_max, **options):
    """The compiled scan against the Python DFS, length by length (closures
    computed, values and both witnesses), to every bound from 1 to
    ``n_max``: at every split below the bound, on one worker thread and on
    two; with the reversal test off and, when the machine has an
    inverse_states map, on; with the commutation rule off and, when some
    states commute, on; and with the mirror rule off and on.  Each
    compiled scan must also report every prefix of its split length done."""
    walk = functools.lru_cache(maxsize=None)(functools.partial(_walk_record, auto))
    for reversal, commutation, mirror in itertools.product((False, True), repeat=3):
        if reversal and inverse_states(auto) is None:
            continue  # no reversal test: the scans are those without it
        for n in range(1, n_max + 1):
            if not assert_bound(auto, n, walk, reversal=reversal, commutation=commutation,
                                mirror=mirror, **options):
                break  # no two states commute: the scans are those without the rule


def assert_bound(auto, n, walk, commutation=True, **options):
    """The compiled scan to bound ``n`` against the Python DFS, at every
    split below ``n`` on one worker thread and on two, as in assert_parity.
    False, with nothing compared, when the commutation rule is asked for
    and no two states commute."""
    allowed, sigmas, compiled, reference = twins(auto, n, commutation=commutation, walk=walk,
                                                 **options)
    comm = commuting_states(auto, allowed) if commutation else None
    if commutation and comm is None:
        return False
    expected = reference()
    for split in range(n):
        prefixes = len(_canonical_prefixes(allowed, sigmas, split, comm))
        for jobs in (1, 2):
            done = []
            assert compiled(split, jobs, done.append, 60) == expected, (
                n, split, jobs, commutation, options)
            assert done == [prefixes]
    return True


@requires_cc
@pytest.mark.parametrize("pegs, n_max", [(3, 6), (4, 6), (5, 6)])
def test_kernel_matches_reference_on_hanoi(pegs, n_max):
    assert_parity(hanoi_automaton(pegs), n_max)


@requires_cc
def test_kernel_matches_reference_on_basilica():
    basilica = parse_automaton(BASILICA.read_text())
    assert_parity(basilica, 13)
    # One bound more with the survey's own settings (no two of Basilica's
    # states commute): claims at every split of the longest scan.
    walk = functools.lru_cache(maxsize=None)(functools.partial(_walk_record, basilica))
    assert assert_bound(basilica, 14, walk, commutation=False)


@requires_cc
def test_kernel_matches_reference_with_the_do_nothing_state():
    # The do-nothing state, whose pairs mirror the prefix closure, may sit
    # at any position.
    assert_parity(parse_automaton(BASILICA.read_text()), 9, exclude_trivial=False)


@requires_cc
@settings(max_examples=50, deadline=None)
@given(
    auto=invertible_machines(),
    exclude_trivial=st.booleans(),
    symmetry=st.booleans(),
)
def test_kernel_matches_reference_on_random_machines(auto, exclude_trivial, symmetry):
    assert_parity(auto, 5, exclude_trivial=exclude_trivial, symmetry=symmetry)


@requires_cc
@settings(max_examples=20, deadline=None)
@given(auto=inverse_closed_machines(), symmetry=st.booleans())
def test_kernel_matches_reference_on_inverse_closed_machines(auto, symmetry):
    # Machines whose inverse_states map is not the identity.
    assert_parity(auto, 4, symmetry=symmetry)


@requires_cc
@settings(max_examples=20, deadline=None)
@given(auto=commuting_machines(), exclude_trivial=st.booleans())
def test_kernel_matches_reference_on_commuting_machines(auto, exclude_trivial):
    # With the do-nothing state allowed, it commutes with every state.
    assert_parity(auto, 5, exclude_trivial=exclude_trivial)


@requires_cc
def test_compiled_scan_takes_only_lengths_past_its_prefix(ha4):
    # The prefixes whose subtrees the workers claim are shorter than the
    # scan's longest words.
    _, _, compiled, _ = twins(ha4, 3)
    for split in (-1, 3, 4):
        with pytest.raises(ValueError):
            compiled(split)


def csv_of(auto, n_max, **options):
    return render_growth_csv(survey(auto, n_max, **options), auto)


@requires_cc
def test_missing_compiler_falls_back_to_the_same_rows(monkeypatch, ha4):
    compiled_rows = csv_of(ha4, 5)
    monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    comm = commuting_states(ha4, range(1, 7))
    assert _kernel.compiled_scan(ha4._next, ha4._emit0, (1, 2), (), None, 5, comm) is None
    assert csv_of(ha4, 5) == compiled_rows

    # The Python scan holds the GIL: at jobs=2 it runs serially, on no
    # worker thread.
    def no_thread(*args, **kwargs):
        pytest.fail("the Python scan started a worker thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert csv_of(ha4, 5, jobs=2) == compiled_rows


@requires_cc
def test_compiled_scans_on_two_threads_match_their_serial_results():
    # Two machines' scans run side by side, each on three worker threads
    # of its own, more than there are cores here; state shared between
    # calls in _kernel.c would mix them up, and a claim lost or taken twice
    # would change the closures computed.  Each job runs the survey's scan
    # at split 2, and must give what one worker gives alone.
    def job(auto, n_max):
        _, _, compiled, _ = twins(auto, n_max)
        return lambda jobs=3: compiled(2, jobs)

    jobs = [job(hanoi_automaton(4), 8), job(parse_automaton(BASILICA.read_text()), 13)]
    serial = [run(1) for run in jobs]
    start = threading.Barrier(len(jobs))

    def together(run):
        start.wait(timeout=60)
        return [run() for _ in range(3)]

    with ThreadPoolExecutor(len(jobs)) as pool:
        threaded = list(pool.map(together, jobs, timeout=120))
    assert threaded == [[results] * 3 for results in serial]


@requires_cc
def test_a_compiled_scan_waits_with_every_and_no_progress(ha4):
    # The waiting thread wakes every 1e-4 s and has no progress to call.
    _, _, compiled, _ = twins(ha4, 8)
    t0 = time.perf_counter()
    rows = compiled(2)
    assert time.perf_counter() - t0 > 1e-4
    assert compiled(2, 1, None, 1e-4) == rows


# The binary adding machine: a adds 1 to a binary number read least
# significant digit first, and e is the do-nothing state.  Its one allowed
# state makes a^k the only word of length k.
ADDING = Automaton(2, ["e", "a"], [[0, 0], [0, 1]], [[1, 2], [2, 1]])


def test_a_survey_past_64_letters_runs_the_python_scan():
    assert _kernel.compiled_scan(ADDING._next, ADDING._emit0, (1,), (), None, 65) is None
    rows = survey(ADDING, 65).rows
    # Row k holds the maxima over a^1 .. a^k, each witnessed by the
    # shortest word that reaches it.
    best, expected = {}, []
    for k in range(1, 66):
        word = (1,) * k
        for query in (word_depth, section_count):
            if query(ADDING, word) > best.get(query, (-1,))[0]:
                best[query] = (query(ADDING, word), word)
        expected.append((k, *best[word_depth], *best[section_count]))
    assert [(r.n, r.depth, r.depth_witness, r.theta, r.theta_witness) for r in rows] == expected
    assert (rows[-1].depth, rows[-1].theta) == (7, 130)
    # The first 64 rows are those of a scan to 64, which runs in the kernel
    # when it loads.
    values = lambda rows: [(r.n, r.depth, r.depth_witness, r.theta, r.theta_witness,
                            r.words_examined, r.orbits) for r in rows]
    assert values(rows[:64]) == values(survey(ADDING, 64).rows)


@requires_cc
def test_many_state_machine_scans_in_the_kernel_with_the_reference_rows(monkeypatch):
    # 514 states, 512 of them do-nothing: the survey kernel takes machines
    # of any number of states, at lengths up to 64.
    pad = 512
    names = ["a", "b"] + [f"e{i}" for i in range(pad)]
    nxt = [[1, 2], [0, 2]] + [[2 + i] * 2 for i in range(pad)]
    out = [[1, 2], [2, 1]] + [[1, 2]] * pad
    auto = Automaton(2, names, nxt, out)
    comm = commuting_states(auto, (0, 1))
    assert comm is None  # past 64 states no masks are passed
    assert _kernel.compiled_scan(auto._next, auto._emit0, (0, 1), (), None, 7, comm) is not None
    compiled = survey(auto, 7, symmetry=False).rows
    monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    assert _kernel.compiled_scan(auto._next, auto._emit0, (0, 1), (), None, 7, comm) is None
    reference = survey(auto, 7, symmetry=False).rows
    strip = lambda rows: [(r.depth, r.depth_witness, r.theta, r.theta_witness, r.words_examined)
                          for r in rows]
    assert strip(compiled) == strip(reference)


def test_unusable_cache_directory_gives_no_kernel(tmp_path, monkeypatch, ha4):
    blocker = tmp_path / "file"
    blocker.write_text("")
    open_dir = tmp_path / "open"
    (open_dir / "mealygroup").mkdir(parents=True)
    (open_dir / "mealygroup").chmod(0o777)
    for cache in (blocker, open_dir):
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        comm = commuting_states(ha4, range(1, 7))
        assert _kernel.compiled_scan(ha4._next, ha4._emit0, (1, 2), (), None, 4, comm) is None
    assert not list((open_dir / "mealygroup").iterdir())


def test_import_loads_no_compiler_machinery():
    code = "import sys, mealygroup; print(sorted({'ctypes', 'subprocess'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(_kernel.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[]"


# --- the closure record -----------------------------------------------------


@contextlib.contextmanager
def no_compiler():
    """Closure queries inside run on the Python walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
        yield


def closure_answers(auto, word):
    return (
        section_closure(auto, word),
        is_identity(auto, word),
        word_depth(auto, word),
        section_count(auto, word),
        word_problem(auto, word),
        fixing_threshold(auto, word),
    )


def assert_closure_parity(auto, word):
    """The compiled record, threshold and all six consumers against the
    Python walk, on one word."""
    kernel = _kernel.compiled_closure(auto)
    assert kernel is not None, "the kernel failed to build or load"
    compiled = kernel.record(word)
    reference = _walk_record(auto, word)
    assert [list(field) for field in compiled] == [list(field) for field in reference], word
    assert kernel.threshold(word) == _period_threshold(reference, auto.alphabet_size), word
    # The early stops of both twins give the answer the whole record gives.
    identity = reference.images == list(range(auto.alphabet_size)) * len(reference.nodes)
    stopped = kernel.record(word, (), True)
    assert (stopped is not None) == (_walk_record(auto, word, stop=True) is not None) == identity
    answers = closure_answers(auto, word)
    with no_compiler():
        assert _kernel.compiled_closure(auto) is None
        assert closure_answers(auto, word) == answers, word


def random_words(auto, count, max_len, seed):
    """Seeded words over every state, the do-nothing one included, with
    lengths up to ``max_len``."""
    rng = random.Random(seed)
    k = len(auto.states)
    return [tuple(rng.randrange(k) for _ in range(rng.randrange(max_len + 1))) for _ in range(count)]


@requires_cc
def test_closure_kernel_matches_reference_on_named_machines():
    machines = [hanoi_automaton(3), hanoi_automaton(4), hanoi_automaton(5),
                parse_automaton(BASILICA.read_text())]
    for seed, auto in enumerate(machines):
        for word in random_words(auto, 40, 40, seed):
            assert_closure_parity(auto, word)
        # Words without a do-nothing state, as claim samples them, and words
        # of do-nothing states alone: each node steps every position or none.
        allowed = [s for s in range(len(auto.states)) if s not in auto._trivials]
        rng = random.Random(seed)
        for _ in range(10):
            assert_closure_parity(auto, tuple(rng.choices(allowed, k=32)))
            if auto._trivials:
                assert_closure_parity(auto, tuple(rng.choices(sorted(auto._trivials), k=32)))


def closure_within(auto, word, limit):
    """Whether the closure of ``word`` has at most ``limit`` nodes: the
    Python walk, with the section budget set to ``limit``, stops with
    BudgetError once it would add one more."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "SECTION_BUDGET", limit)
        try:
            _walk_record(auto, word)
        except BudgetError:
            return False
    return True


@requires_cc
@settings(max_examples=120, deadline=None)
@given(
    auto=st.one_of(invertible_machines(), dies_or_stays_machines()),
    seed=st.integers(0, 2**32 - 1),
)
def test_closure_kernel_matches_reference_on_random_machines(auto, seed):
    # Closures of random machines can grow exponentially with the word, so
    # words whose closure passes 2,000 sections are left out.
    rng = random.Random(seed)
    words = random_words(auto, 3, 30, seed)
    # A word without do-nothing states and one of do-nothing states alone.
    for states in ([s for s in range(len(auto.states)) if s not in auto._trivials],
                   sorted(auto._trivials)):
        if states:
            words.append(tuple(rng.choices(states, k=rng.randrange(31))))
    for word in words:
        if closure_within(auto, word, 2000):
            assert_closure_parity(auto, word)


@pytest.mark.parametrize("twin", [pytest.param("kernel", marks=requires_cc), "walk"])
def test_a_closure_of_exactly_the_budget_fits_and_one_section_more_raises(ha4, monkeypatch, twin):
    word = tuple(random.Random(0).choices(range(1, 7), k=16))
    rec = _walk_record(ha4, word)
    count = len(rec.nodes)
    threshold = _period_threshold(rec, ha4.alphabet_size)
    # The last level holds more than one section, so at count - 1 the
    # budget runs out inside it, not at a level's end.
    assert rec.starts[-2] < count - 1
    assert threshold is not None
    if twin == "kernel":
        kernel = _kernel.compiled_closure(ha4)
        assert kernel is not None, "the kernel failed to build or load"
        walk = lambda: kernel.record(word)
    else:
        monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
        walk = lambda: _walk_record(ha4, word)
    # fixing_threshold runs on the twin under test.
    assert (_kernel.compiled_closure(ha4) is None) == (twin == "walk")
    monkeypatch.setattr(_kernel, "SECTION_BUDGET", count)
    assert len(walk().nodes) == count
    assert fixing_threshold(ha4, word) == threshold
    monkeypatch.setattr(_kernel, "SECTION_BUDGET", count - 1)
    for query in (walk, lambda: fixing_threshold(ha4, word)):
        with pytest.raises(BudgetError, match=f"more than {count - 1} sections"):
            query()


@pytest.fixture
def kernel_calls(ha4, monkeypatch):
    """The names of the kernel functions that Hanoi-4's closure queries
    call from here on, in order."""
    kernel = _kernel.compiled_closure(ha4)
    lib, calls = kernel._lib, []

    class Counting:
        def __getattr__(self, name):
            fn = getattr(lib, name)
            return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(kernel, "_lib", Counting())
    return calls


@requires_cc
def test_a_compiled_threshold_is_one_kernel_call(ha4, kernel_calls):
    word = tuple(random.Random(1).choices(range(1, 7), k=32))
    assert fixing_threshold(ha4, word) == _period_threshold(_walk_record(ha4, word), 4)
    assert kernel_calls == ["mg_threshold"]


@requires_cc
def test_wp_is_one_kernel_call(ha4, kernel_calls):
    names = "a(1,2).a(3,4).a(1,3).a(1,2).a(3,4).a(1,3)"
    closure = section_closure(ha4, ha4.word_from_names(names.split(".")))
    kernel_calls.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["wp", "--pegs", "4", "--word", names]) == 1
    assert out.getvalue() == f"non-identity sections={closure.count} depth={closure.depth}\n"
    assert kernel_calls == ["mg_closure", "mg_closure_free"]


@requires_cc
def test_is_identity_frees_a_record_only_when_it_walked_the_whole_closure(ha4, kernel_calls):
    # A word that is not the identity stops inside mg_closure, which frees
    # its record itself; an identity word walks its closure, then frees it.
    word = tuple(random.Random(2).choices(range(1, 7), k=32))
    assert not is_identity(ha4, word)
    assert kernel_calls == ["mg_closure"]
    kernel_calls.clear()
    assert is_identity(ha4, word + word[::-1])
    assert kernel_calls == ["mg_closure", "mg_closure_free"]


@requires_cc
def test_closure_kernel_rejects_state_indices_outside_its_tables(ha4):
    kernel = _kernel.compiled_closure(ha4)
    k = len(ha4.states)
    for query in (kernel.record, kernel.threshold, lambda word: kernel.record(word, (), True)):
        for word, bad in [((1, k, 2), k), ((1, -1), -1), ((k + 300,), k + 300)]:
            with pytest.raises(ValueError, match=f"state index {bad} out of range 0..{k - 1}"):
                query(word)


# The lamplighter machine (a, b) with states A, B acting as a^-1, b^-1.  A
# word of n letters over a and b has 2**n sections.
LAMPLIGHTER = parse_automaton("""\
alphabet 2
states a b A B
a 1 -> a 1
a 2 -> b 2
b 1 -> a 2
b 2 -> b 1
A 1 -> A 1
A 2 -> B 2
B 1 -> B 2
B 2 -> A 1
""")


@pytest.mark.parametrize("twin", [pytest.param("kernel", marks=requires_cc), "walk"])
def test_is_identity_stops_at_the_first_moving_section_and_only_identities_pass_the_budget(
    monkeypatch, twin
):
    monkeypatch.setattr(_kernel, "SECTION_BUDGET", 1000)
    if twin == "walk":
        monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    assert (_kernel.compiled_closure(LAMPLIGHTER) is None) == (twin == "walk")
    a, b, a_inv, b_inv = range(4)
    moving = (a, b) * 20  # 2**40 sections
    with pytest.raises(BudgetError):
        word_problem(LAMPLIGHTER, moving)
    assert not is_identity(LAMPLIGHTER, moving)
    half = (a, b) * 5
    identity = half + tuple({a: a_inv, b: b_inv}[s] for s in reversed(half))  # 1,024 sections
    for query in (is_identity, word_problem):
        with pytest.raises(BudgetError, match="more than 1000 sections"):
            query(LAMPLIGHTER, identity)
    monkeypatch.setattr(_kernel, "SECTION_BUDGET", 1024)
    assert word_problem(LAMPLIGHTER, identity) == (True, 1024, 10)
    assert is_identity(LAMPLIGHTER, identity)


@pytest.mark.parametrize("twin", [pytest.param("kernel", marks=requires_cc), "walk"])
@pytest.mark.parametrize("pegs", [3, 4, 5])
def test_a_word_times_its_reverse_is_the_identity_and_one_state_off_is_not(pegs, twin):
    # Every generator is an involution, so w followed by w reversed is the
    # identity.  Changing one state s of it to t != s leaves a conjugate of
    # t s, or of s when t is the do-nothing state: never the identity.
    auto = hanoi_automaton(pegs)
    k = len(auto.states)
    rng = random.Random(pegs)
    lengths = [*range(1, 65), 150]  # w of length 150 makes a word of length 300
    if (pegs, twin) == (5, "walk"):
        # On 5 pegs the walk takes 14 s for w up to length 64 and 40 s more
        # for the 300-state pair (243,000 sections); up to 32 it takes 1 s.
        lengths = range(1, 33)
    with contextlib.nullcontext() if twin == "kernel" else no_compiler():
        assert (_kernel.compiled_closure(auto) is None) == (twin == "walk")
        for n in lengths:
            half = tuple(rng.choices(range(1, k), k=n))
            word = half + half[::-1]
            i = rng.randrange(len(word))
            off = word[:i] + (rng.choice([s for s in range(k) if s != word[i]]),) + word[i + 1:]
            assert is_identity(auto, word), word
            assert not is_identity(auto, off), off


@requires_cc
def test_closure_kernel_handles_the_empty_word_and_long_words(ha4):
    assert_closure_parity(ha4, ())
    # An identity word of length 300 (w followed by w reversed: every
    # generator is an involution), far past the survey's longest word.
    rng = random.Random(5)
    half = tuple(rng.choices(range(1, 7), k=150))
    word = half + half[::-1]
    assert_closure_parity(ha4, word)
    assert is_identity(ha4, word)



@pytest.mark.parametrize("twin, disks, letters, depth, count", [
    pytest.param("kernel", 20, 289, 24, 12_113, marks=requires_cc),
    ("walk", 20, 289, 24, 12_113),
    # The walk takes minutes on 1,025 letters; only the kernel runs it.
    pytest.param("kernel", 30, 1_025, 36, 97_713, marks=requires_cc),
])
def test_four_peg_solver_words_have_the_pinned_depth_and_count(ha4, twin, disks, letters, depth,
                                                               count):
    word = ha4.word_from_names(frame_stewart(4, disks))
    assert len(word) == letters
    with contextlib.nullcontext() if twin == "kernel" else no_compiler():
        assert (_kernel.compiled_closure(ha4) is None) == (twin == "walk")
        assert word_problem(ha4, word) == (False, count, depth)


@requires_cc
def test_wp_on_a_long_solver_word_fits_in_a_gibibyte():
    # The 2,817-letter solver word has 829,327 sections.  Its record is
    # built from its halves' without stepping a 2,817-state section word
    # per node, so the whole run fits a 1 GiB address space.
    import resource

    names = ".".join(frame_stewart(4, 40))
    assert _kernel.compiled_closure(hanoi_automaton(4)) is not None  # built, so the child loads it
    env = dict(os.environ, PYTHONPATH=str(Path(_kernel.__file__).parent.parent))
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    out = subprocess.run([sys.executable, "-m", "mealygroup.cli", "wp", "--pegs", "4", "--word",
                          names], capture_output=True, text=True, env=env, preexec_fn=limit,
                         timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (
        1, "non-identity sections=829327 depth=45\n", "")


# A machine that is not invertible: z writes 1 whatever it reads and stays
# z, so (a b)^4 z^8 has 9 sections, and its half (a b)^4 has 256.
RESET = parse_automaton("""\
alphabet 2
states a b z
a 1 -> a 1
a 2 -> b 2
b 1 -> a 2
b 2 -> b 1
z 1 -> z 1
z 2 -> z 1
""")


def unsettled(auto, word, budget, stop):
    """Whether mg_closure leaves ``word`` to the Python walk."""
    kernel = _kernel.compiled_closure(auto)
    out = _kernel._ClosureOut()
    rc = kernel._lib.mg_closure(*kernel._machine, len(word), bytes(word), budget, stop, 0, out)
    return rc == _kernel._UNSETTLED


@requires_cc
def test_a_half_past_the_budget_that_does_not_settle_the_answer_goes_to_the_walk(monkeypatch):
    # On a machine that is not invertible a half can have more sections
    # than the word.
    a, b, z = range(3)
    word = (a, b) * 4 + (z,) * 8
    reference = _walk_record(RESET, word)
    assert not RESET.is_invertible
    assert (len(reference.nodes), len(_walk_record(RESET, word[:8]).nodes)) == (9, 256)
    monkeypatch.setattr(_kernel, "SECTION_BUDGET", 9)
    kernel = _kernel.compiled_closure(RESET)
    assert unsettled(RESET, word, 9, False)
    assert [list(field) for field in kernel.record(word)] == [list(field) for field in reference]
    assert kernel.threshold(word) == _period_threshold(reference, 2)
    assert (section_count(RESET, word), word_depth(RESET, word)) == (9, reference.depth)
    # With stop, a word may move a letter before its closure passes the
    # budget.  This one's sections at inputs of up to two letters fix both
    # letters; node 7, at level 3, moves one; its closure has 256 sections
    # and a half 32.
    word = (0, 1, 0, 0, 2, 1, 1, 0, 1, 0)
    monkeypatch.setattr(_kernel, "SECTION_BUDGET", 20)
    assert unsettled(LAMPLIGHTER, word, 20, True) and not unsettled(LAMPLIGHTER, word, 20, False)
    assert not is_identity(LAMPLIGHTER, word)
    with pytest.raises(BudgetError):
        word_problem(LAMPLIGHTER, word)

def test_machines_the_closure_kernel_cannot_hold_use_the_walk():
    # 257 states do not fit one byte per position.
    names = ["a"] + [f"e{i}" for i in range(256)]
    big = Automaton(2, names, [[0, 0]] + [[i, i] for i in range(1, 257)],
                    [[2, 1]] + [[1, 2]] * 256)
    assert _kernel.compiled_closure(big) is None
    for word in [(0, 0, 1), (0, 256, 0), (5, 7)]:
        assert (word_depth(big, word), section_count(big, word)) == brute_depth_and_count(big, word)
    assert not is_identity(big, (0, 1))
    assert is_identity(big, (0, 1, 0))


def claim_csv(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["claim", "--csv", *argv])
    return code, out.getvalue()


@requires_cc
def test_claim_without_compiler_gives_the_same_csv():
    argv = ("--pegs", "4", "--lengths", "8,32", "--samples", "25", "--seed", "3")
    compiled = claim_csv(*argv)
    with no_compiler():
        assert claim_csv(*argv) == compiled
    assert compiled[0] == 0 and compiled[1].count("\n") == 51
