"""The compiled kernels against their Python reference twins: the survey
scan, the closure record and fixing-threshold loop that the queries read,
and the stepping loop of apply and section_word; and the fallback to the
references when no kernel can be used."""

import contextlib
import functools
import gc
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
    AutomatonError,
    apply,
    fixing_threshold,
    frame_stewart,
    hanoi_automaton,
    is_identity,
    parse_automaton,
    render_growth_csv,
    section_closure,
    section_count,
    section_word,
    survey,
    word_depth,
)
from mealygroup import _kernel, analysis, format_automaton
from mealygroup.analysis import (
    BudgetError,
    _path_threshold,
    _scan_lengths,
    _walk_record,
    automaton_symmetries,
    commuting_states,
    inverse_states,
    word_problem,
)
from mealygroup.cli import main
import oracles
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
    compiled scan must also end its progress where the Python scan at the
    same split ends it, every subtree done."""
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
    assert_splits(compiled, reference, n, commutation, options)
    return True


def assert_splits(compiled, reference, n, *context):
    """At every split below ``n``, on one thread and on two, the compiled
    scan's rows are the Python scan's, and its progress ends where the
    Python scan's ends at that split."""
    expected = reference()
    for split in range(n):
        last = progress_end(reference, split, 1, expected)
        for jobs in (1, 2):
            assert progress_end(compiled, split, jobs, expected) == last, (
                n, split, jobs, *context)


def progress_end(scan, split, jobs, expected):
    """The last progress call of ``scan`` at ``split`` on ``jobs`` threads,
    whose rows must be ``expected``: (N, N) for the N subtrees it counted,
    or (0, 0) for a Python scan with no subtree there, which reports only
    as a subtree ends."""
    calls = []
    assert scan(split, jobs, lambda *call: calls.append(call), 60) == expected, (split, jobs)
    done, total = calls[-1] if calls else (0, 0)
    assert done == total, calls
    return done, total


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
@settings(max_examples=40, deadline=None)
@given(
    auto=st.one_of(invertible_machines(), dies_or_stays_machines(), inverse_closed_machines(),
                   commuting_machines()),
    exclude_trivial=st.booleans(),
    symmetry=st.booleans(),
)
def test_both_scans_count_the_same_subtrees_on_random_machines(auto, exclude_trivial, symmetry):
    # The machines on which the mirror rule is checked, with the survey's
    # own reductions: at every split of the scan to n = 5, on one thread and
    # on two, the compiled scan ends its progress where the Python scan does.
    _, _, compiled, reference = twins(auto, 5, exclude_trivial=exclude_trivial,
                                      symmetry=symmetry)
    assert_splits(compiled, reference, 5)


class FirstReport(Exception):
    """Raised by a progress callback to stop a scan at its first report."""


@requires_cc
@pytest.mark.parametrize("machine, n_max, split, subtrees", [
    ("hanoi4", 8, 4, 39),
    ("hanoi5", 8, 4, 62),
    ("basilica", 13, 3, 4),
    ("basilica", 13, 4, 8),
])
def test_the_scans_count_the_subtrees_at_the_split(machine, n_max, split, subtrees):
    # Fewer than the canonical prefixes of the split length (52, 79, 8 and
    # 16): those below a mirror or a twin are not subtrees.  The compiled
    # scan ends at (N, N) on one thread and on two.  The Python scan's
    # first report already carries N, so it is stopped there.
    auto = (parse_automaton(BASILICA.read_text()) if machine == "basilica"
            else hanoi_automaton(int(machine.removeprefix("hanoi"))))
    _, _, compiled, reference = twins(auto, n_max)
    for jobs in (1, 2):
        calls = []
        compiled(split, jobs, lambda *call: calls.append(call), 60)
        assert calls[-1] == (subtrees, subtrees), jobs

    def stop(*call):
        raise FirstReport(call)

    with pytest.raises(FirstReport) as report:
        reference(split, 1, stop)
    assert report.value.args == ((1, subtrees),)


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
    assert compiled == reference, word
    assert kernel.threshold(word) == _path_threshold(reference, auto.alphabet_size), word
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
    threshold = _path_threshold(rec, ha4.alphabet_size)
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
    assert fixing_threshold(ha4, word) == _path_threshold(_walk_record(ha4, word), 4)
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
    assert kernel_calls == ["mg_closure"]


@requires_cc
def test_is_identity_is_one_kernel_call_whether_or_not_it_walks_the_whole_closure(ha4,
                                                                                  kernel_calls):
    # A word that is not the identity stops inside mg_closure; an identity
    # word walks its whole closure into the handle's workspace, which the
    # next call reuses, so nothing is freed.
    word = tuple(random.Random(2).choices(range(1, 7), k=32))
    assert not is_identity(ha4, word)
    assert kernel_calls == ["mg_closure"]
    kernel_calls.clear()
    assert is_identity(ha4, word[:16] + word[15::-1])
    assert kernel_calls == ["mg_closure"]


# --- one handle per machine ---------------------------------------------------


def mixed_queries(auto, words):
    """(query, expected answer) pairs on ``auto``'s kernel, taking the
    words in turn as the whole record, section words and levels only, the
    early stop and the threshold; the answers come from the Python walk."""
    kernel = _kernel.compiled_closure(auto)
    assert kernel is not None, "the kernel failed to build or load"
    out = []
    for i, word in enumerate(words):
        ref = _walk_record(auto, word)
        out.append([
            (lambda w=word: kernel.record(w), ref),
            (lambda w=word: kernel.record(w, ("nodes", "starts"))[:2], ref[:2]),
            (lambda w=word: kernel.record(w, (), True) is not None, ref.identity),
            (lambda w=word: kernel.threshold(w), _path_threshold(ref, auto.alphabet_size)),
        ][i % 4])
    return out


def run_queries(auto, words, seed):
    """(query, expected answer) pairs on ``auto``, taking ``apply`` and
    ``section_word`` in turn on each word and a seeded input; the answers
    come from the Python reference in ``oracles``."""
    out = []
    for i, (word, letters) in enumerate(seeded_runs(auto, words, seed)):
        query, reference = [(apply, oracles.word_image), (section_word, oracles.word_section)][i % 2]
        out.append((functools.partial(query, auto, word, letters),
                    reference(auto, word, letters)))
    return out


def seeded_words(auto, lengths, seed):
    rng = random.Random(seed)
    return [tuple(rng.choices(range(len(auto.states)), k=n)) for n in lengths]


def seeded_runs(auto, words, seed, max_len=40):
    """Each word with a seeded input of up to ``max_len`` letters."""
    rng = random.Random(seed)
    m = auto.alphabet_size
    return [(word, tuple(rng.choices(range(1, m + 1), k=rng.randrange(max_len + 1))))
            for word in words]


@requires_cc
def test_two_threads_query_one_handle(ha4):
    # ctypes releases the GIL inside each call: without the kernel's lock
    # the two threads would walk in one workspace.  Identity words walk
    # their whole closures.
    words = seeded_words(ha4, [random.Random(i).randrange(41) for i in range(150)], 13)
    words += [w + w[::-1] for w in seeded_words(ha4, range(25, 75), 14)]
    # Each word's closure query, then its apply or section_word, which
    # share the handle's lock and workspace.
    queries = [q for pair in zip(mixed_queries(ha4, words), run_queries(ha4, words, 16))
               for q in pair]
    assert len(queries) == 400
    start = threading.Barrier(2)

    def run(order):
        start.wait(timeout=60)
        return [(i, queries[i][0]()) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            runs = list(pool.map(run, [range(400), range(399, -1, -1)], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for answers in runs:
        for i, answer in answers:
            assert answer == queries[i][1], words[i // 2]


@requires_cc
def test_a_kernel_dropped_from_the_cache_frees_its_handle_and_a_new_one_answers():
    machines = [oracles.cycle_machine(k) for k in range(2, 22)]
    words = {auto: seeded_words(auto, range(0, 33, 4), len(auto.states)) for auto in machines}
    first = _kernel.compiled_closure(machines[0])
    freed = first._free
    del first
    for auto in machines:
        for query, expected in mixed_queries(auto, words[auto]):
            assert query() == expected
    gc.collect()
    # 19 machines since the first one: the cache of 16 dropped its kernel.
    assert not freed.alive
    for query, expected in mixed_queries(machines[0], words[machines[0]]):
        assert query() == expected


@requires_cc
def test_a_record_past_the_workspace_cap_is_the_callers_and_short_words_follow(ha4,
                                                                              kernel_calls):
    # The 1,025-letter solver word's record (97,713 sections) leaves the
    # workspace past its cap: mg_closure hands the record over, the caller
    # frees it, and the workspace starts afresh for the short words.  Its
    # threshold (the Python walk's too, which takes half a minute) is 36.
    word = ha4.word_from_names(frame_stewart(4, 30))
    assert word_problem(ha4, word) == (False, 97_713, 36)
    assert fixing_threshold(ha4, word) == 36
    assert kernel_calls == ["mg_closure", "mg_closure_free", "mg_threshold"]
    kernel_calls.clear()
    queries = mixed_queries(ha4, seeded_words(ha4, [*range(41), *range(40, -1, -1)], 15))
    for query, expected in queries:
        assert query() == expected
    assert kernel_calls == ["mg_closure", "mg_closure", "mg_closure", "mg_threshold"] * 20 + [
        "mg_closure", "mg_closure"]


@requires_cc
def test_closure_kernel_rejects_state_indices_outside_its_tables(ha4):
    kernel = _kernel.compiled_closure(ha4)
    k = len(ha4.states)
    for query in (kernel.record, kernel.threshold, lambda word: kernel.record(word, (), True)):
        for word, bad, at in [((1, k, 2), k, 2), ((1, -1), -1, 2), ((k + 300,), k + 300, 1)]:
            with pytest.raises(ValueError,
                               match=f"state index {bad} at position {at} out of range 0..{k - 1}"):
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
    rc = kernel._lib.mg_closure(kernel._handle, len(word), bytes(word), budget, stop,
                                _kernel._ClosureOut())
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
    assert kernel.record(word) == reference
    assert kernel.threshold(word) == _path_threshold(reference, 2)
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


# --- fixing thresholds past the period of the sets of sections ----------------


@pytest.fixture(params=[pytest.param("kernel", marks=requires_cc), "walk"])
def threshold_twin(request):
    """The twin that the test's fixing thresholds run on: the kernel, or the
    walk when no compiler can be found."""
    with no_compiler() if request.param == "walk" else contextlib.nullcontext():
        yield request.param


def test_a_threshold_whose_sets_of_sections_repeat_after_223092870_steps_is_none_at_once(
        threshold_twin):
    auto = oracles.cycles_machine(oracles.PRIME_CYCLES)
    assert (len(auto.states), auto.alphabet_size) == (101, 9)
    assert (_kernel.compiled_closure(auto) is None) == (threshold_twin == "walk")
    start = time.perf_counter()
    assert fixing_threshold(auto, (0,)) is None
    assert time.perf_counter() - start < 1
    # A cycle state fixes no letter and comes back at every multiple of its
    # cycle's length; a word of cycle states has such a section too.
    assert fixing_threshold(auto, (1,)) is None
    assert fixing_threshold(auto, (3, 1)) is None


# r reads letter 1 into b at once, and letter 2 through p and q into b three
# letters later; b fixes no letter, and every section of e fixes both.
DETOUR = Automaton(2, ["r", "p", "q", "b", "e"],
                   [[3, 1], [2, 2], [3, 3], [4, 4], [4, 4]],
                   [[1, 2], [1, 2], [1, 2], [2, 1], [1, 2]])


def test_the_threshold_is_one_past_the_longest_path_to_a_section_fixing_no_letter(
        threshold_twin):
    assert (_kernel.compiled_closure(DETOUR) is None) == (threshold_twin == "walk")
    fixing = [all(oracles.block_has_common_fixed(DETOUR, sec)
                  for sec in oracles.sections_at_length(DETOUR, (0,), length))
              for length in range(8)]
    # b is a section at input lengths 1 and 3, and at no other.
    assert fixing == [True, False, True, False, True, True, True, True]
    assert fixing_threshold(DETOUR, (0,)) == 4
    assert fixing_threshold(DETOUR, (1,)) == 3
    assert fixing_threshold(DETOUR, (4,)) == 0


def test_claim_on_the_cycle_machine_exits_1_with_inf_rows(threshold_twin, tmp_path):
    path = tmp_path / "cycles.txt"
    path.write_text(format_automaton(oracles.cycles_machine(oracles.PRIME_CYCLES)))
    code, out = claim_csv("--automaton", str(path), "--lengths", "1", "--samples", "200")
    header, *rows = out.splitlines()
    assert (code, header, len(rows)) == (1, "n,word,t_star,bound,pass", 200)
    assert all(row.split(",")[2::2] == ["inf", "false"] for row in rows)


# --- apply and section_word ---------------------------------------------------


def run_answers(auto, cases):
    """``apply`` and ``section_word`` of each (word, letters), or the type
    and text of the error each raises."""
    out = []
    for word, letters in cases:
        for query in (apply, section_word):
            try:
                out.append(query(auto, word, letters))
            except (AutomatonError, TypeError, ValueError) as exc:
                out.append((type(exc), str(exc)))
    return out


def assert_run_parity(auto, cases):
    """``apply`` and ``section_word`` with the kernel against the Python
    path, on each (word, letters): the same results and the same errors.
    Returns the answers."""
    assert _kernel.compiled_closure(auto) is not None, "the kernel failed to build or load"
    compiled = run_answers(auto, cases)
    with no_compiler():
        assert _kernel.compiled_closure(auto) is None
        assert run_answers(auto, cases) == compiled
    return compiled


@requires_cc
def test_compiled_apply_and_section_word_match_python_on_named_machines():
    # Words over every state, the do-nothing one included, and inputs of
    # every length 0-40; RESET is not invertible.
    machines = [hanoi_automaton(3), hanoi_automaton(4), hanoi_automaton(5),
                parse_automaton(BASILICA.read_text()), RESET]
    for seed, auto in enumerate(machines):
        m = auto.alphabet_size
        rng = random.Random(seed)
        cases = seeded_runs(auto, random_words(auto, 60, 40, seed), seed)
        cases += [(word, tuple(rng.choices(range(1, m + 1), k=(7 * n) % 41)))
                  for n, word in enumerate(seeded_words(auto, range(41), seed))]
        cases += [((), ()), ((), (1,) * 5), (tuple(sorted(auto._trivials)) * 3, (m,) * 7)]
        answers = assert_run_parity(auto, cases)
        kernel = _kernel.compiled_closure(auto)
        for (word, letters), image, sec in zip(cases, answers[::2], answers[1::2]):
            expected = (oracles.word_image(auto, word, letters),
                        oracles.word_section(auto, word, letters))
            assert kernel.run(word, letters) == (image, sec) == expected, (word, letters)
            assert kernel.run(list(word), list(letters)) == expected


@requires_cc
@settings(max_examples=100, deadline=None)
@given(
    auto=st.one_of(invertible_machines(), dies_or_stays_machines()),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_apply_and_section_word_match_python_on_random_machines(auto, seed):
    words = random_words(auto, 6, 40, seed)
    if auto._trivials:
        words.append(tuple(sorted(auto._trivials)) + words[0])
    assert_run_parity(auto, seeded_runs(auto, words, seed))


@requires_cc
def test_act_and_section_are_one_kernel_call(ha4, kernel_calls):
    for command, expected in (("act", "3324\n"), ("section", "e.a(1,2)\n")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, "--pegs", "4", "--word", "a(2,4).a(1,2)", "--input",
                         "3344"]) == 0
        assert out.getvalue() == expected
    assert kernel_calls == ["mg_run", "mg_run"]


@requires_cc
def test_an_input_past_the_workspace_cap_and_short_inputs_after_it():
    # 300,000 letters pass the handle's 256 KiB cap: the next call frees
    # the buffer, with the rest of the workspace, before it reuses it.
    # The lamplighter machine has no do-nothing state, so every position
    # reads the whole input.
    rng = random.Random(17)
    a, b, a_inv, b_inv = range(4)
    long_input = tuple(rng.choices((1, 2), k=300_000))
    cases = [((a, b, a_inv), long_input), ((b,), long_input[:5])]
    cases += seeded_runs(LAMPLIGHTER, seeded_words(LAMPLIGHTER, range(0, 41, 5), 17), 17)
    cases += [((b_inv, a) * 3, long_input), ((), long_input), ((a,), ())]
    assert_run_parity(LAMPLIGHTER, cases)
    for query, expected in mixed_queries(LAMPLIGHTER, seeded_words(LAMPLIGHTER, range(12), 18)):
        assert query() == expected


@requires_cc
def test_compiled_apply_and_section_word_raise_the_python_errors(ha4):
    k, m = len(ha4.states), ha4.alphabet_size
    state = f"out of range 0..{k - 1}"
    letter = f"out of range 1..{m}"
    cases = [
        ((1, k, 2), (1, 2), f"state index {k} at position 2 {state}"),
        ((1, -1), (1,), f"state index -1 at position 2 {state}"),
        ((k + 300,), (1,), f"state index {k + 300} at position 1 {state}"),
        ((1, 2), (1, 0), f"letter 0 at position 2 {letter}"),
        ((1,), (2, m + 1), f"letter {m + 1} at position 2 {letter}"),
        ((), (300,), f"letter 300 at position 1 {letter}"),
        ((), (-2,), f"letter -2 at position 1 {letter}"),
        # The state is checked first.
        ((k,), (0,), f"state index {k} at position 1 {state}"),
        ((1, 2.0, -1), (m + 1,), f"state index -1 at position 3 {state}"),
        ([1, k], [0], f"state index {k} at position 2 {state}"),
    ]
    answers = assert_run_parity(ha4, [(word, letters) for word, letters, _ in cases])
    for (_, _, message), image, sec in zip(cases, answers[::2], answers[1::2]):
        assert image == sec == (AutomatonError, message)
    # Words and inputs that bytes() refuses or that are not tuples or
    # lists take the Python path, which accepts what int() takes.
    others = [((1.0, 2), (1, 2.0)), ("12", (1,)), ((1, 2), "12"), (range(3), (1, 2)),
              ((1, "x"), (1,)), ((1,), (None,)), (None, (1,)), ((1,), 5), (5, (1,))]
    answers = assert_run_parity(ha4, others)
    assert answers[:6] == [apply(ha4, (1, 2), (1, 2)), section_word(ha4, (1, 2), (1, 2)),
                           apply(ha4, (1, 2), (1,)), section_word(ha4, (1, 2), (1,)),
                           apply(ha4, (1, 2), (1, 2)), section_word(ha4, (1, 2), (1, 2))]
    assert all(isinstance(answer[0], type) for answer in answers[8:])
