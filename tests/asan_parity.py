"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

Builds ``_kernel.c`` with ``-fsanitize=address,undefined``, binds it in
place of the cached library, and checks it against the Python twins: the
closure record, the fixing threshold, the early-stopping record, and
apply and section_word (``mg_run``) on seeded words and inputs of
lengths 0 to 40 over Hanoi 3-5, Basilica and a machine of cycles of 2, 3
and 5 states (whose sections fixing no letter lie on cycles, so the
threshold's pass leaves them unpeeled), identity words on Hanoi,
long solver words and an input past the workspace's cap on Hanoi-4, and
two survey scans on two worker threads, split below two letters: Hanoi-4,
and Basilica, where the twin rule fires.  Each machine keeps one query
handle for the whole run, and the machines take turns on it, so a
workspace left by a longer word,
by another kind of query or by a record or input past the workspace's
cap is reused: lengths go 0 -> 40 -> 0, the solver words and the long
input come before short ones, and the whole record, section words alone,
the early stop and the threshold rotate.  A
memory error or undefined behaviour aborts the run; a wrong answer fails
an assertion.  Not a pytest module: the Python interpreter must load the
sanitizer runtime first, so run it as

    LD_PRELOAD=$(gcc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \\
        PYTHONPATH=src python tests/asan_parity.py
"""

import ctypes
import functools
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from mealygroup import _kernel, hanoi_automaton, parse_automaton
from mealygroup.automata import _run_state
from mealygroup.analysis import (
    _path_threshold,
    _scan_lengths,
    _walk_record,
    automaton_symmetries,
    commuting_states,
    inverse_states,
)
from mealygroup.hanoi import frame_stewart
from oracles import cycles_machine

BASILICA = Path(__file__).parent.parent / "perfbench" / "basilica.txt"


def sanitized_library(directory):
    """``_kernel.c`` built with the sanitizers, its functions bound as
    ``_kernel`` binds them."""
    lib = Path(directory) / "kernel-asan.so"
    subprocess.run([_kernel._CC, "-O1", "-g", "-fno-omit-frame-pointer",
                    "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
                    "-shared", "-fPIC", "-o", str(lib), str(_kernel._SOURCE)], check=True)
    dll = ctypes.CDLL(str(lib))
    for name, (restype, argtypes) in _kernel._SIGNATURES.items():
        fn = getattr(dll, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return dll


def check_closures(auto, words, turn=0):
    """Every query on each word, starting the rotation at ``turn``."""
    kernel = _kernel.compiled_closure(auto)
    m = auto.alphabet_size
    for word in words:
        reference = _walk_record(auto, word)
        queries = [
            lambda: list(kernel.record(word)) == list(reference),
            lambda: kernel.record(word, ("nodes", "starts"))[:2] == reference[:2],
            lambda: (kernel.record(word, (), True) is None)
            == (_walk_record(auto, word, stop=True) is None),
            lambda: kernel.threshold(word) == _path_threshold(reference, m),
        ]
        for i in range(len(queries)):
            assert queries[(turn + i) % len(queries)](), word


def check_runs(auto, cases):
    """``mg_run`` on each (word, letters) against ``_run_state``."""
    kernel = _kernel.compiled_closure(auto)
    for word, letters in cases:
        v = [x - 1 for x in letters]
        ends = [_run_state(auto, s, v) for s in reversed(word)][::-1]
        assert kernel.run(word, letters) == (tuple(c + 1 for c in v), tuple(ends)), word


def check_scan(auto, n_max):
    k = len(auto.states)
    allowed = tuple(s for s in range(k) if s not in auto._trivials)
    sigmas = tuple(sg for sg in automaton_symmetries(auto) if sg != tuple(range(k)))
    iota, comm = inverse_states(auto), commuting_states(auto, allowed)
    scan = _kernel.compiled_scan(auto._next, auto._emit0, allowed, sigmas, iota, n_max, comm)
    walk = functools.partial(_walk_record, auto)
    rows = scan(2, 2)
    assert rows == _scan_lengths(allowed, walk, sigmas, iota, n_max, comm=comm)
    return rows


def main():
    with tempfile.TemporaryDirectory() as tmp:
        lib = sanitized_library(tmp)
        _kernel._library = lambda: lib
        _kernel._closure_kernel.cache_clear()
        machines = [hanoi_automaton(3), hanoi_automaton(4), hanoi_automaton(5),
                    parse_automaton(BASILICA.read_text()), cycles_machine((2, 3, 5))]
        handles = [_kernel.compiled_closure(auto) for auto in machines]
        rngs = [random.Random(seed) for seed in range(len(machines))]
        for turn, n in enumerate([*range(41), *range(40, -1, -1)]):
            for auto, rng in zip(machines, rngs):
                word = tuple(rng.choices(range(len(auto.states)), k=n))
                # Hanoi generators are involutions, so w w^-1 is w then w
                # reversed: the identity, which no early stop settles.
                identity = [word + word[::-1]] if auto in machines[:3] and n <= 20 else []
                check_closures(auto, [word, *identity], turn)
                m = auto.alphabet_size
                check_runs(auto, [(word, tuple(rng.choices(range(1, m + 1), k=k)))
                                  for k in (n, 40 - n, 0)])
        # Solver words, whose halves hash their pair codes; the last one's
        # record passes the workspace's cap.  Then short words again.
        ha4 = machines[1]
        check_closures(ha4, [ha4.word_from_names(frame_stewart(4, d)) for d in (10, 16, 20)])
        # An input whose buffer passes the cap, then short inputs and words.
        long_input = tuple(rngs[1].choices(range(1, 5), k=300_000))
        check_runs(ha4, [((), long_input), ((1, 2, 3), long_input), ((4,), (1, 2)), ((), ())])
        check_closures(ha4, [tuple(rngs[1].choices(range(7), k=n)) for n in range(12)], 1)
        check_runs(ha4, [(tuple(rngs[1].choices(range(7), k=n)), (2,) * n) for n in range(12)])
        assert [_kernel.compiled_closure(auto) for auto in machines] == handles
        check_scan(ha4, 6)
        # Basilica's children of the empty word are twins: no closure below
        # the second is computed.
        assert [row[0] for row in check_scan(machines[3], 8)] == [2, 2, 4, 8, 16, 32, 64, 128]
    print("sanitized kernels match the Python twins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
