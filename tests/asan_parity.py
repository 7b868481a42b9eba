"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

Builds ``_kernel.c`` with ``-fsanitize=address,undefined``, binds it in
place of the cached library, and checks it against the Python twins: the
closure record, the fixing threshold and the early-stopping record on
seeded words of lengths 0 to 40 over Hanoi 3-5 and Basilica, identity
words on Hanoi, long solver words on Hanoi-4, and one survey scan.  A
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
from mealygroup.analysis import (
    _period_threshold,
    _scan_lengths,
    _walk_record,
    automaton_symmetries,
    commuting_states,
    inverse_states,
)
from mealygroup.hanoi import frame_stewart

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


def check_closures(auto, words):
    kernel = _kernel.compiled_closure(auto)
    m = auto.alphabet_size
    for word in words:
        reference = _walk_record(auto, word)
        assert list(kernel.record(word)) == list(reference), word
        assert kernel.threshold(word) == _period_threshold(reference, m), word
        stopped = kernel.record(word, (), True)
        assert (stopped is None) == (_walk_record(auto, word, stop=True) is None), word


def check_scan(auto, n_max):
    k = len(auto.states)
    allowed = tuple(s for s in range(k) if s not in auto._trivials)
    sigmas = tuple(sg for sg in automaton_symmetries(auto) if sg != tuple(range(k)))
    iota, comm = inverse_states(auto), commuting_states(auto, allowed)
    scan = _kernel.compiled_scan(auto._next, auto._emit0, allowed, sigmas, iota, n_max, comm)
    walk = functools.partial(_walk_record, auto)
    assert scan(2, 2) == _scan_lengths(allowed, walk, sigmas, iota, n_max, comm=comm)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        lib = sanitized_library(tmp)
        _kernel._library = lambda: lib
        _kernel._closure_kernel.cache_clear()
        machines = [hanoi_automaton(3), hanoi_automaton(4), hanoi_automaton(5),
                    parse_automaton(BASILICA.read_text())]
        for seed, auto in enumerate(machines):
            rng = random.Random(seed)
            k = len(auto.states)
            words = [tuple(rng.choices(range(k), k=n)) for n in range(41)]
            if auto is not machines[3]:
                # Hanoi generators are involutions, so w w^-1 is w then w
                # reversed: the identity, which no early stop settles.
                words += [w + w[::-1] for w in words[1:21]]
            check_closures(auto, words)
        # Solver words, whose halves hash their pair codes.
        ha4 = machines[1]
        check_closures(ha4, [ha4.word_from_names(frame_stewart(4, d)) for d in (10, 16)])
        check_scan(ha4, 6)
    print("sanitized kernels match the Python twins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
