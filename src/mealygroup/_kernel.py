"""Loader for the compiled kernels in ``_kernel.c``: the survey scan
(``mg_scan``) and the queries on one machine, one ctypes call each on a
:class:`ClosureKernel`'s handle.  ``mg_closure`` builds the closure record
of a word from the records of its halves; only the fields the query reads
are copied out (section words only for ``section_closure``; with
``stop``, as ``is_identity`` asks, the walk ends at the first section
that moves a letter).  ``mg_threshold`` runs the longest-path pass of
``fixing_threshold`` over the record in the same call.  ``mg_run`` is
``automata.apply`` and ``section_word``, so ``act`` and ``section`` load
the kernel too.

On first use the C source is compiled with the system C compiler into
``${XDG_CACHE_HOME:-~/.cache}/mealygroup/``, under a name keyed by the
sha256 of the source and the compile command, and loaded with ctypes.
When that is impossible (no compiler, a failed build, an unwritable or
unsafe cache directory) :func:`compiled_scan` and :func:`compiled_closure`
return None and the callers run their Python twins.  A C allocation
failure raises :class:`MemoryError`, and a closure of more than
:data:`SECTION_BUDGET` sections :class:`BudgetError`, as in the walk.
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
import weakref
from pathlib import Path

from .analysis import BudgetError, _Closure, _merge_round, _path_threshold, _walk_record
from .automata import check_state_word

_CC = "cc"
_SOURCE = Path(__file__).with_name("_kernel.c")
_OUT_OF_MEMORY = "the compiled kernel ran out of memory"
_MAXN = 64  # MAXN in _kernel.c: the longest word the survey scan takes
# The query kernels' codes for a word whose half passes the budget when that
# does not settle the answer (see _kernel.c), which the Python walk answers
# instead, and for a word with a state past the machine's tables.
_UNSETTLED, _PAST_TABLES = 2, 3

# The most sections one closure may have.  Closures can grow exponentially
# with the word (a lamplighter word of length n has 2**n sections), and past
# this a walk stops with BudgetError instead of exhausting memory.
SECTION_BUDGET = 1 << 20


def budget_error() -> BudgetError:
    """The error of a closure walk that passes :data:`SECTION_BUDGET`."""
    return BudgetError(f"a section closure has more than {SECTION_BUDGET} sections")


def _check(rc, auto=None, word=()):
    """Raise the error a nonzero kernel return code stands for."""
    if rc == _PAST_TABLES:
        check_state_word(auto, word)  # raises, naming the state and its position
    if rc == -2:
        raise budget_error()
    if rc != 0:
        raise MemoryError(_OUT_OF_MEMORY)

_I32 = ctypes.c_int32
_I64 = ctypes.c_int64
_I32P = ctypes.POINTER(_I32)
_U64P = ctypes.POINTER(ctypes.c_uint64)
_PTR = ctypes.c_void_p  # a pointer, and a query handle


class _ClosureOut(ctypes.Structure):
    """The ``Record`` that ``mg_closure`` fills in (see ``_kernel.c``)."""

    _fields_ = [("count", _I64), ("levels", _I64), ("words", _PTR), ("n", _I64),
                ("starts", _PTR), ("children", _PTR), ("images", _PTR), ("fixed", _PTR),
                ("cap", _I64), ("identity", _I32), ("owned", _I32)]


_SIGNATURES = {
    "mg_scan": (ctypes.c_int, [_I32, _I32, _I32P, _I32P, _I32, _I32P, _I32, _I32P, _I32P,
                               _U64P, _I32, _I64, _I32, _I32, _I32, _U64P,
                               ctypes.POINTER(_I64), _I32P, ctypes.POINTER(_I64)]),
    "mg_query_new": (_PTR, [_I32, _I32, _I32P, _I32P, ctypes.c_char_p]),
    "mg_query_free": (None, [_PTR]),
    "mg_closure": (_I32, [_PTR, _I32, ctypes.c_char_p, _I64, _I32, ctypes.POINTER(_ClosureOut)]),
    "mg_closure_free": (None, [ctypes.POINTER(_ClosureOut)]),
    "mg_threshold": (_I32, [_PTR, _I32, ctypes.c_char_p, _I64, ctypes.POINTER(_I64)]),
    "mg_run": (_PTR, [_PTR, _I32, ctypes.c_char_p, _I64, ctypes.c_char_p]),
}


def _library():
    """The kernel library, or None.  Memoised per compiler and cache setting."""
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
    the GIL, runs the whole DFS and claims the subtrees at depth ``split``
    from a shared counter; their results are merged per length here.  The
    first worker counts those subtrees before it claims any.  This thread
    only waits, passing ``progress`` (subtrees scanned, subtrees to scan)
    every ``every`` seconds once that count is known, and at the end.  Once
    the wait raises (Ctrl-C) or a worker fails, no subtree is claimed, and
    the error comes when the running ones end.  None when the kernel cannot
    be loaded or ``n_max`` is past 64."""
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
        # The next ordinal to claim, subtrees done, the stop flag, and the
        # subtrees to scan (-1 until the census ends).
        shared = (_I64 * 4)(0, 0, 0, -1)
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
                    if progress and shared[3] >= 0:
                        progress(shared[1], shared[3])
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
            progress(shared[1], shared[3])
        return tuple(rows)

    return scan


def _ints(typecode, pointer, count):
    """A list of the ``count`` C integers (an ``array`` typecode) at ``pointer``."""
    values = array.array(typecode)
    values.frombytes(ctypes.string_at(pointer, count * values.itemsize))
    return values.tolist()


def _section_words(out, n):
    """The section words of a record, one byte per state, as tuples of states."""
    if not n:
        return [()] * out.count
    words = iter(ctypes.string_at(out.words, out.count * n))
    return list(zip(*[words] * n))  # consecutive groups of n bytes


# How each ``_Closure`` field is copied out of mg_closure's record of n states, m letters.
_READERS = {
    "nodes": lambda out, n, m: _section_words(out, n),
    "starts": lambda out, n, m: _ints("q", out.starts, out.levels + 1),
    "children": lambda out, n, m: _ints("i", out.children, out.count * m),
    "images": lambda out, n, m: _ints("i", out.images, out.count * m),
    "fixed": lambda out, n, m: _ints("Q", out.fixed, out.count),
    "identity": lambda out, n, m: bool(out.identity),
}


class ClosureKernel:
    """The queries on one machine's C handle (``mg_query_new``): its
    tables, copied once, and a workspace that every call reuses (see
    ``_kernel.c``), freed with the kernel.  ctypes releases the GIL, so a
    lock covers each call and its copy-out.  Where a half of the word passes
    :data:`SECTION_BUDGET` and that does not settle the answer (with
    ``stop``, or on a machine that is not invertible), the walk answers."""

    def __init__(self, lib, auto):
        self._lib, self._auto, self._m = lib, auto, auto.alphabet_size
        k = len(auto.states)
        self._handle = lib.mg_query_new(k, self._m, *_tables(auto._next, auto._emit0),
                                        bytes(s in auto._trivials for s in range(k)))
        if not self._handle:
            raise MemoryError(_OUT_OF_MEMORY)
        self._free = weakref.finalize(self, lib.mg_query_free, self._handle)
        self._out, self._t, self._lock = _ClosureOut(), _I64(), threading.Lock()

    def _word(self, word):
        """``word`` as one byte per state; the kernel checks the states
        against its tables, and only a word it or ``bytes`` refuses gets
        ``check_state_word`` and its error."""
        if isinstance(word, (tuple, list)):
            try:
                return bytes(word)
            except (TypeError, ValueError):
                pass
        return bytes(check_state_word(self._auto, word))

    def record(self, word, fields=_Closure._fields, stop=False):
        """The closure record of ``word``, the twin of ``_walk_record``, with
        only the ``_Closure`` fields named in ``fields`` copied out of C and
        the others None (section words are written only for ``nodes``).
        With ``stop``, None once a section moves a letter."""
        w, out = self._word(word), self._out
        with self._lock:
            rc = self._lib.mg_closure(self._handle, len(w), w, SECTION_BUDGET,
                                      stop | ("nodes" in fields) << 1, out)
            if rc == 0:
                try:
                    return _Closure._make(_READERS[f](out, len(w), self._m) if f in fields
                                          else None for f in _Closure._fields)
                finally:
                    if out.owned:  # a record past the workspace's cap
                        self._lib.mg_closure_free(out)
        if rc == 1:
            return None
        if rc == _UNSETTLED:
            return _walk_record(self._auto, w, stop)
        _check(rc, self._auto, w)

    def threshold(self, word):
        """The fixing threshold of ``word``, None when there is none: the
        closure and the pass over it run in one ``mg_threshold`` call."""
        w = self._word(word)
        with self._lock:
            rc = self._lib.mg_threshold(self._handle, len(w), w, SECTION_BUDGET, self._t)
            t = self._t.value
        if rc == _UNSETTLED:
            return _path_threshold(_walk_record(self._auto, w), self._m)
        _check(rc, self._auto, w)
        return None if t == -1 else t

    def run(self, word, letters):
        """``(apply, section_word)`` of the tuples or lists ``word`` and
        ``letters`` in one ``mg_run`` call; None when ``bytes`` or the
        kernel refuses them, and the Python path then raises its error."""
        if not (isinstance(word, (tuple, list)) and isinstance(letters, (tuple, list))):
            return None
        try:
            w, u = bytes(word), bytes(letters)
        except (TypeError, ValueError):
            return None
        with self._lock:
            out = self._lib.mg_run(self._handle, len(w), w, len(u), u)
            if out is None:
                return None
            out = ctypes.string_at(out, len(u) + len(w))
        return tuple(out[: len(u)]), tuple(out[len(u) :])


def compiled_closure(auto):
    """The :class:`ClosureKernel` of the machine ``auto``, or None when the
    kernel cannot be loaded or the machine has more than 256 states (one
    byte a state) or 64 letters (64-bit masks).  The cache directory is read
    once per machine and compiler, when the kernel is first looked up."""
    return _closure_kernel(auto, _CC)


@functools.lru_cache(maxsize=16)
def _closure_kernel(auto, cc):
    """One lookup per query: kept per machine and compiler, and a machine
    keeps its hash, so a lookup hashes no table."""
    if len(auto.states) > 256 or auto.alphabet_size > 64:
        return None
    lib = _library()
    return None if lib is None else ClosureKernel(lib, auto)
