"""A standing set of mutants of the survey scan's reductions, each of
which the tests must kill.

A mutant is one text replacement in one source file, the reason the
mutated code is wrong, and the tests that must fail on it; each rule is
broken once in the compiled scan (``_kernel.c``) and once in its Python
twin (``analysis.py``).  The script first runs every listed test on a
copy of the tree as it is, where they must pass.  Then, for each mutant,
it copies the tree to a temporary directory, applies the replacement
(which must match exactly once) and runs the mutant's tests there with
``-x``, the kernel built into a cache of the copy's own.  A mutant is
killed when a test fails or the tests crash.  One line is printed per
mutant, and the exit code is 1 if any mutant survives or no longer
applies.  The tests listed depend on no timing.  Not a pytest module;
run it from anywhere as

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = "src/mealygroup/_kernel.c"
ANALYSIS = "src/mealygroup/analysis.py"

TWIN_TEST = "tests/test_analysis.py::test_a_twin_needs_its_siblings_tying_symmetries"
COMMUTATION_TEST = "tests/test_analysis.py::test_closures_with_the_commutation_rule_on_hanoi5"
CENSUS_TEST = "tests/test_kernel.py::test_the_scans_count_the_subtrees_at_the_split"

# (file, old text, new text, why it is wrong, the tests that kill it)
MUTANTS = [
    (KERNEL,
     "sc->comm[s] & (f | ((1ULL << s) - 1))",
     "sc->comm[s] & ((1ULL << s) - 1)",
     "the commutation rule without the carried forbidden set",
     [COMMUTATION_TEST + "[kernel]"]),
    (ANALYSIS,
     "comm[s] & (forbid | ((1 << s) - 1))",
     "comm[s] & ((1 << s) - 1)",
     "the commutation rule without the carried forbidden set",
     [COMMUTATION_TEST + "[python]"]),
    (KERNEL,
     "\n                    && forbid(sc, f, sc->allowed[b]) == forbid(sc, f, sc->allowed[a])",
     "",
     "a twin without the forbidden-set test",
     ["tests/test_analysis.py::test_closures_with_the_mirror_rule_on_hanoi"]),
    (ANALYSIS,
     "key = (tuple(rec.children), tuple(sub), after)",
     "key = (tuple(rec.children), tuple(sub))",
     "a twin without the forbidden-set test",
     [TWIN_TEST + "[python]"]),
    (KERNEL,
     "\n                    && same_tying(sc, active, nact, sc->allowed[b], sc->allowed[a])",
     "",
     "a twin without the tying test",
     [TWIN_TEST + "[kernel]"]),
    (ANALYSIS,
     "key = (tuple(rec.children), tuple(sub), after)",
     "key = (tuple(rec.children), after)",
     "a twin without the tying test",
     [TWIN_TEST + "[python]"]),
    (KERNEL,
     "\n                    && same_automaton(&kid[b], &kid[a], sc->m))",
     ")",
     "a twin that compares depth and count only",
     ["tests/test_analysis.py::test_closures_with_the_mirror_rule_on_hanoi"]),
    (ANALYSIS,
     "key = (tuple(rec.children), tuple(sub), after)",
     "key = (rec.depth, len(rec.nodes), tuple(sub), after)",
     "a twin that compares depth and count only",
     ["tests/test_analysis.py::test_twins_halve_the_basilica_scan[python]"]),
    (KERNEL,
     "        if (kind[a] != DESCEND)\n            continue;",
     "        if (kind[a] != DESCEND\n"
     "            && !(sc->census && kind[a] == MIRROR && depth + 1 == sc->split))\n"
     "            continue;",
     "a census that numbers a mirror child at the split depth",
     [CENSUS_TEST]),
    (ANALYSIS,
     'if kind == "descend":',
     'if kind == "descend" or census and kind == "mirror" and depth + 1 == split:',
     "a census that numbers a mirror child at the split depth",
     [CENSUS_TEST]),
    (KERNEL,
     "for (int i = 0; i < n; i++) {\n            examined[i] = 0;",
     "for (int i = 0; pass == !counts && i < n; i++) {\n            examined[i] = 0;",
     "a census whose results are not cleared",
     ["tests/test_analysis.py::test_closures_with_the_mirror_rule_on_hanoi"]),
    (ANALYSIS,
     "    for census in (True, False):  # the census, then the scan, each from cleared results\n"
     "        examined = [0] * n_max\n"
     "        scope = [[-1, None, -1, None] for _ in examined]\n",
     "    examined = [0] * n_max\n"
     "    scope = [[-1, None, -1, None] for _ in examined]\n"
     "    for census in (True, False):\n",
     "a census whose results are not cleared",
     ["tests/test_analysis.py::test_twins_halve_the_basilica_scan[python]"]),
    (KERNEL,
     " && keep == nact && forbid(sc, f, s) == f",
     " && keep == nact",
     "a mirror without the forbidden-set test",
     ["tests/test_analysis.py::test_closures_with_the_mirror_rule_on_hanoi"]),
    (ANALYSIS,
     " and after == forbid and rec.children == table",
     " and rec.children == table",
     "a mirror without the forbidden-set test",
     [TWIN_TEST + "[python]"]),
    (KERNEL,
     " && keep == nact && forbid(sc, f, s) == f",
     " && forbid(sc, f, s) == f",
     "a mirror without the tying test",
     [TWIN_TEST + "[kernel]"]),
    (ANALYSIS,
     "if mirror and len(sub) == len(active) and after == forbid",
     "if mirror and after == forbid",
     "a mirror without the tying test",
     [TWIN_TEST + "[python]"]),
    (KERNEL,
     "(value == sc->best[to + v] && !inserted_less(base, depth, x, w, len))",
     "value == sc->best[to + v]",
     "a fold that keeps the first of two equal values, not the lex-least word",
     ["tests/test_analysis.py::test_the_mirror_rule_changes_only_closures_on_hanoi[4-8]"]),
    (ANALYSIS,
     "if base[j] > best[j] or (base[j] == best[j] and w < best[j + 1]):",
     "if base[j] > best[j]:",
     "a fold that keeps the first of two equal values, not the lex-least word",
     ["tests/test_analysis.py::test_the_python_scan_folds_mirrors_as_the_kernel_does"]),
    (KERNEL,
     "    if (sc->lo[last] != w[0])\n        return sc->lo[last] < w[0];",
     "    return sc->lo[last] < w[0];",
     "a reversal test that reads only the first letter",
     ["tests/test_analysis.py::test_closures_at_the_last_length_take_one_word_per_reversed_pair"]),
    (ANALYSIS,
     "t[s] <= word[0] and [t[c] for c in reversed(word)] < word",
     "t[s] < word[0]",
     "a reversal test that reads only the first letter",
     ["tests/test_analysis.py::test_every_reversal_class_has_a_visited_word[3-6]"]),
    (KERNEL,
     "        if (c < s)\n            return -1;\n",
     "",
     "tying without its exit on a symmetry that maps the word lower",
     ["tests/test_analysis.py::test_closures_with_the_mirror_rule_on_hanoi"]),
    (ANALYSIS,
     "        if c < s:\n            return None\n",
     "",
     "_extend_active without its exit on a symmetry that maps the word lower",
     ["tests/test_analysis.py::test_canonical_enumeration_hits_every_orbit_once"]),
]


def copy_tree(to):
    """The parts of the tree the tests read, without caches."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, to / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", to)


def run_tests(tree, tests):
    """pytest's exit code for ``tests`` in ``tree``, stopping at the first
    failure: 0 when all pass, 1 when one fails, negative on a crash."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), XDG_CACHE_HOME=str(tree / "cache"))
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True).returncode


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "unmutated"
        copy_tree(tree)
        tests = sorted({test for *_, kills in MUTANTS for test in kills})
        if run_tests(tree, tests):
            print("the mutants' tests fail on the tree as it is")
            return 1
        for i, (file, old, new, why, kills) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{i}"
            copy_tree(tree)
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"STALE     {file}: {why} (the text to replace is not there once)")
                failed += 1
                continue
            path.write_text(text.replace(old, new))
            code = run_tests(tree, kills)
            killed = code == 1 or code < 0  # not a usage error or no tests run
            failed += not killed
            print(f"{'killed' if killed else 'SURVIVED':<9} {Path(file).name}: {why}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
