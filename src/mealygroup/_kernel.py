"""Loader for the compiled kernels in ``_kernel.c``: the survey scan
(``mg_scan``) and the closure queries.  ``mg_closure`` builds the closure
record of one word from the records of its halves, and
:meth:`ClosureKernel.record` returns it as ``analysis._Closure``, copying
out only the fields that the query reads (with ``stop``, as
``is_identity`` asks, the walk ends at the first section that moves a
letter).  Section words are written only when the query reads them, as
``section_closure`` does.  ``mg_threshold`` builds the record and runs
the eventual-period loop of ``fixing_threshold`` over it in the same
call, so a threshold is one ctypes call.

On first use the C source is compiled with the system C compiler into
``${XDG_CACHE_HOME:-~/.cache}/mealygroup/``, under a name keyed by the
sha256 of the source and the compile command, and loaded with ctypes.
Whenever that is impossible (no compiler, a failed build, an unwritable or
unsafe cache directory) :func:`compiled_scan` and :func:`compiled_closure`
return None and the callers run their Python reference code instead.  A C
allocation failure raises :class:`MemoryError`, and a closure of more than
:data:`SECTION_BUDGET` sections raises :class:`BudgetError` in the kernels
and in the Python walk alike.
"""

from __future__ import annotations

import array
import ctypes
import functools
import hashlib
import itertools
import os
import subprocess
import tempfile
import threading
from pathlib import Path

from .analysis import BudgetError, _Closure, _merge_round, _period_threshold, _walk_record

_CC = "cc"
_SOURCE = Path(__file__).with_name("_kernel.c")
_OUT_OF_MEMORY = "the compiled kernel ran out of memory"
_MAXN = 64  # MAXN in _kernel.c: the longest word the survey scan takes
# mg_closure's code for a word whose half passes the budget when that does
# not settle the answer (see _kernel.c): the Python walk answers instead.
_UNSETTLED = 2

# The most sections one closure may have.  Closures can grow exponentially
# with the word (a lamplighter word of length n has 2**n sections), and past
# this a walk stops with BudgetError instead of exhausting memory.
SECTION_BUDGET = 1 << 20


def budget_error() -> BudgetError:
    """The error of a closure walk that passes :data:`SECTION_BUDGET`."""
    return BudgetError(f"a section closure has more than {SECTION_BUDGET} sections")


def _check(rc):
    """Raise the error a nonzero kernel return code stands for."""
    if rc == -2:
        raise budget_error()
    if rc != 0:
        raise MemoryError(_OUT_OF_MEMORY)

_I32 = ctypes.c_int32
_I64 = ctypes.c_int64
_I32P = ctypes.POINTER(_I32)
_U64P = ctypes.POINTER(ctypes.c_uint64)


class _ClosureOut(ctypes.Structure):
    """The ``Closure`` struct that ``mg_closure`` fills in."""

    _fields_ = [
        ("count", _I64),
        ("levels", _I64),
        ("words", ctypes.c_void_p),
        ("n", _I64),
        ("starts", ctypes.c_void_p),
        ("children", ctypes.c_void_p),
        ("images", ctypes.c_void_p),
        ("fixed", ctypes.c_void_p),
        ("cap", _I64),
    ]


_SIGNATURES = {
    "mg_scan": (ctypes.c_int, [_I32, _I32, _I32P, _I32P, _I32, _I32P, _I32, _I32P, _I32P,
                               _U64P, _I32, _I64, _I32, _I32, _I32, _U64P,
                               ctypes.POINTER(_I64), _I32P, ctypes.POINTER(_I64)]),
    "mg_closure": (ctypes.c_int, [ctypes.c_int, ctypes.c_int, _I32P, _I32P, ctypes.c_int,
                                  ctypes.c_char_p, _I64, ctypes.c_int, ctypes.c_int,
                                  ctypes.POINTER(_ClosureOut)]),
    "mg_closure_free": (None, [ctypes.POINTER(_ClosureOut)]),
    "mg_threshold": (ctypes.c_int, [ctypes.c_int, ctypes.c_int, _I32P, _I32P, ctypes.c_int,
                                    ctypes.c_char_p, _I64, ctypes.POINTER(_I64)]),
}


def _library():
    """The kernel library, or None.  Memoised per compiler and cache
    setting."""
    return _load(_CC, os.environ.get("XDG_CACHE_HOME"))


@functools.lru_cache(maxsize=None)
def _load(cc: str, xdg_cache):
    """The kernel library, built into the cache directory if needed, or None."""
    base = xdg_cache or os.path.join(os.path.expanduser("~"), ".cache")
    cache = Path(base) / "mealygroup"
    cmd = [cc, "-O2", "-shared", "-fPIC"]
    try:
        source = _SOURCE.read_bytes()
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = cache.stat()
        # Another user's or a group/world-writable directory could hold a
        # planted library; never load from one.
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None
        key = hashlib.sha256(source + "\0".join(cmd).encode()).hexdigest()[:24]
        lib = cache / f"kernel-{key}.so"
        if not lib.exists():
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([*cmd, "-o", tmp, str(_SOURCE)], check=True, capture_output=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        dll = ctypes.CDLL(str(lib))
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(dll, name)
            fn.restype = restype
            fn.argtypes = argtypes
    except (OSError, AttributeError, subprocess.CalledProcessError):
        return None
    return dll


def _tables(nxt, emit0):
    return [(_I32 * (len(t) * len(t[0])))(*itertools.chain.from_iterable(t)) for t in (nxt, emit0)]


def compiled_scan(nxt, emit0, allowed, group, iota, n_max, comm=None, mirror=True):
    """The twin of ``analysis._scan_lengths`` (see ``_kernel.c``), with
    the closure walk bound in: ``scan(split, jobs=1, progress=None,
    every=None)`` gives the same per-length results up to ``n_max``.  Each
    of ``jobs`` worker threads makes one ``mg_scan`` call, which releases
    the GIL, runs the whole DFS and claims the subtrees below the canonical
    prefixes of ``split`` letters from a shared counter; their results are
    merged per length here.  This thread only waits, passing ``progress``
    the prefixes done every ``every`` seconds and at the end.  Once the
    wait raises (Ctrl-C) or a worker fails, no subtree is claimed, and the
    error comes when the running ones end.  None when the kernel cannot be
    loaded or ``n_max`` is past 64."""
    if n_max > _MAXN:
        return None
    lib = _library()
    if lib is None:
        return None
    k, m = len(nxt), len(nxt[0])
    machine = (k, m, *_tables(nxt, emit0), len(allowed), (_I32 * len(allowed))(*allowed),
               len(group), (_I32 * (len(group) * k))(*itertools.chain.from_iterable(group)),
               None if iota is None else (_I32 * k)(*iota),
               None if comm is None else (ctypes.c_uint64 * k)(*comm), int(mirror))

    def scan(split, jobs=1, progress=None, every=None):
        if not 0 <= split < n_max:
            raise ValueError(f"cannot split a scan to length {n_max} at {split}")
        shared = (_I64 * 3)()  # the next ordinal to claim, prefixes done, the stop flag
        # Per worker: closures computed, best depth and count, and witnesses.
        outs = [((ctypes.c_uint64 * n_max)(), (_I64 * (2 * n_max))(),
                 (_I32 * (2 * n_max * n_max))()) for _ in range(jobs)]
        codes = [0] * jobs

        def work(j):
            codes[j] = lib.mg_scan(*machine, SECTION_BUDGET, n_max, split, int(j == 0), *outs[j],
                                   shared)

        workers = [threading.Thread(target=work, args=(j,)) for j in range(jobs)]
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(every)
                while w.is_alive():
                    if progress:
                        progress(shared[1])
                    w.join(every)
        finally:
            shared[2] = 1  # the stop flag: running subtrees end, and no other is claimed
            for w in workers:
                if w.is_alive():
                    w.join()
        _check(min(codes))  # a failed worker, or one without memory
        rows = []
        for length in range(1, n_max + 1):
            j, w = length - 1, 2 * n_max * (length - 1)
            rows.append(_merge_round(
                (examined[j], best[2 * j], tuple(witness[w : w + length]),
                 best[2 * j + 1], tuple(witness[w + n_max : w + n_max + length]))
                if best[2 * j] >= 0 else (0, -1, None, -1, None)
                for examined, best, witness in outs))
        if progress:
            progress(shared[1])
        return tuple(rows)

    return scan


def _ints(typecode, pointer, count):
    """A list of the ``count`` C integers (an ``array`` typecode) at ``pointer``."""
    values = array.array(typecode)
    values.frombytes(ctypes.string_at(pointer, count * values.itemsize))
    return values.tolist()


def _section_words(out, n):
    """The section words of a record that ``mg_closure`` filled in with
    them, one byte per state, as tuples of state indices."""
    if not n:
        return [()] * out.count
    words = iter(ctypes.string_at(out.words, out.count * n))
    return list(zip(*[words] * n))  # consecutive groups of n bytes


# How each ``_Closure`` field is copied out of a record that ``mg_closure``
# filled in for a word of n states over m letters.
_READERS = {
    "nodes": lambda out, n, m: _section_words(out, n),
    "starts": lambda out, n, m: _ints("q", out.starts, out.levels + 1),
    "children": lambda out, n, m: _ints("i", out.children, out.count * m),
    "images": lambda out, n, m: _ints("i", out.images, out.count * m),
    "fixed": lambda out, n, m: _ints("Q", out.fixed, out.count),
}


class ClosureKernel:
    """``mg_closure`` and ``mg_threshold`` bound to one machine's tables;
    they take a tuple of state indices.  Where a half of the word passes
    :data:`SECTION_BUDGET` and that does not settle the answer (with
    ``stop``, or on a machine that is not invertible), the Python walk
    answers instead."""

    def __init__(self, lib, auto):
        self._lib, self._auto = lib, auto
        self._k, self._m = len(auto.states), auto.alphabet_size
        self._machine = (self._k, self._m, *_tables(auto._next, auto._emit0))

    def _word(self, word):
        """``word`` as one byte per state, checked against the tables."""
        if word and not 0 <= min(word) <= max(word) < self._k:
            bad = next(s for s in word if not 0 <= s < self._k)
            raise ValueError(f"state index {bad} out of range 0..{self._k - 1}")
        return bytes(word)

    def record(self, word, fields=_Closure._fields, stop=False):
        """The closure record of ``word``, the twin of
        ``analysis._walk_record``, with only the ``_Closure`` fields named
        in ``fields`` copied out of C and the others None; section words
        are written only when ``fields`` names ``nodes``.  With ``stop``,
        None once a section moves a letter: the walk stops there, and the
        kernel has freed the record."""
        w = self._word(word)
        out = _ClosureOut()
        rc = self._lib.mg_closure(*self._machine, len(w), w, SECTION_BUDGET, stop,
                                  "nodes" in fields, out)
        if rc == 1:
            return None
        if rc == _UNSETTLED:
            return _walk_record(self._auto, word, stop)
        _check(rc)
        try:
            n, m = len(w), self._m
            return _Closure._make(_READERS[f](out, n, m) if f in fields else None
                                  for f in _Closure._fields)
        finally:
            self._lib.mg_closure_free(out)

    def threshold(self, word):
        """The fixing threshold of ``word``, None when there is none: the
        closure and the loop over it run in one ``mg_threshold`` call."""
        w = self._word(word)
        t = _I64()
        rc = self._lib.mg_threshold(*self._machine, len(w), w, SECTION_BUDGET, t)
        if rc == _UNSETTLED:
            return _period_threshold(_walk_record(self._auto, word), self._m)
        _check(rc)
        return None if t.value == -1 else t.value


def compiled_closure(auto):
    """The :class:`ClosureKernel` of the machine ``auto``, or None when the
    kernel cannot be loaded or the machine has more than 256 states (a
    section word takes one byte per position) or more than 64 letters
    (fixed letters form a 64-bit mask).  The cache directory is read once
    per machine and compiler, when the kernel is first looked up."""
    return _closure_kernel(auto, _CC)


@functools.lru_cache(maxsize=16)
def _closure_kernel(auto, cc):
    """One lookup per query: kept per machine and compiler, and a machine
    keeps its hash, so a lookup hashes no table."""
    if len(auto.states) > 256 or auto.alphabet_size > 64:
        return None
    lib = _library()
    return None if lib is None else ClosureKernel(lib, auto)
