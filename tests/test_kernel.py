"""The compiled survey kernel against its Python reference twin, and the
survey's fallback to the reference when no kernel can be used."""

import functools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mealygroup import Automaton, hanoi_automaton, parse_automaton, render_growth_csv, survey
from mealygroup import _kernel
from mealygroup.analysis import (
    _canonical_prefixes,
    _depth_count,
    _scan_exact,
    automaton_symmetries,
)
from oracles import invertible_machines

BASILICA = Path(__file__).parent.parent / "perfbench" / "basilica.txt"

requires_cc = pytest.mark.skipif(
    shutil.which(_kernel._CC) is None,
    reason=f"no C compiler ({_kernel._CC}) on PATH: surveys run the Python reference scan",
)


def twins(auto, n_max, exclude_trivial=True, symmetry=True, include_root=True):
    """(allowed, symmetries, compiled scan, reference scan) as survey() sets them up."""
    k = len(auto.states)
    identity = tuple(range(k))
    trivials = auto._trivials if exclude_trivial else ()
    allowed = tuple(s for s in range(k) if s not in trivials)
    sigmas = automaton_symmetries(auto) if symmetry else (identity,)
    sigmas = tuple(sg for sg in sigmas if sg != identity)
    compiled = _kernel.compiled_scan(auto._next, auto._emit0, allowed, include_root, n_max)
    assert compiled is not None, "the kernel failed to build or load"
    stats = functools.partial(_depth_count, auto, include_root=include_root)
    return allowed, sigmas, compiled, functools.partial(_scan_exact, allowed, stats)


def assert_parity(auto, n_max, max_prefix, **options):
    allowed, sigmas, compiled, reference = twins(auto, n_max, **options)
    for n in range(1, n_max + 1):
        for p in range(min(n, max_prefix) + 1):
            for prefix, active in _canonical_prefixes(allowed, sigmas, p):
                assert compiled(prefix, active, n) == reference(prefix, active, n), (n, prefix)


@requires_cc
@pytest.mark.parametrize("pegs, max_prefix", [(3, 6), (4, 6), (5, 3)])
def test_kernel_matches_reference_on_hanoi(pegs, max_prefix):
    assert_parity(hanoi_automaton(pegs), 6, max_prefix)


@requires_cc
def test_kernel_matches_reference_on_basilica():
    assert_parity(parse_automaton(BASILICA.read_text()), 12, 1)


@requires_cc
@settings(max_examples=50, deadline=None)
@given(
    auto=invertible_machines(),
    exclude_trivial=st.booleans(),
    symmetry=st.booleans(),
    include_root=st.booleans(),
)
def test_kernel_matches_reference_on_random_machines(auto, exclude_trivial, symmetry, include_root):
    assert_parity(auto, 5, 1, exclude_trivial=exclude_trivial, symmetry=symmetry,
                  include_root=include_root)


def csv_of(auto, n_max, **options):
    return render_growth_csv(survey(auto, n_max, **options), auto, timings=False)


@requires_cc
def test_missing_compiler_falls_back_to_the_same_rows(monkeypatch, ha4):
    compiled_rows = csv_of(ha4, 5)
    monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    assert _kernel.compiled_scan(ha4._next, ha4._emit0, (1, 2), True, 5) is None
    assert csv_of(ha4, 5) == compiled_rows
    assert csv_of(ha4, 5, jobs=2) == compiled_rows


@requires_cc
def test_words_too_long_to_pack_fall_back_to_the_same_rows():
    # 512 do-nothing states make 10 bits per position: 6 positions fit, 7 do not.
    pad = 512
    names = ["a", "b"] + [f"e{i}" for i in range(pad)]
    nxt = [[1, 2], [0, 2]] + [[2 + i] * 2 for i in range(pad)]
    out = [[1, 2], [2, 1]] + [[1, 2]] * pad
    auto = Automaton(2, names, nxt, out)
    assert _kernel.compiled_scan(auto._next, auto._emit0, (0, 1), True, 6) is not None
    assert _kernel.compiled_scan(auto._next, auto._emit0, (0, 1), True, 7) is None
    packed = survey(auto, 6, symmetry=False).rows
    unpacked = survey(auto, 7, symmetry=False).rows
    strip = lambda rows: [(r.depth, r.depth_witness, r.theta, r.theta_witness, r.words_examined)
                          for r in rows]
    assert strip(unpacked[:6]) == strip(packed)


def test_unusable_cache_directory_gives_no_kernel(tmp_path, monkeypatch, ha4):
    blocker = tmp_path / "file"
    blocker.write_text("")
    open_dir = tmp_path / "open"
    (open_dir / "mealygroup").mkdir(parents=True)
    (open_dir / "mealygroup").chmod(0o777)
    for cache in (blocker, open_dir):
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        assert _kernel.compiled_scan(ha4._next, ha4._emit0, (1, 2), True, 4) is None
    assert not list((open_dir / "mealygroup").iterdir())


def test_import_loads_no_compiler_machinery():
    code = "import sys, mealygroup; print(sorted({'ctypes', 'subprocess'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(_kernel.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[]"
