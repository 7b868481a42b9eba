"""Loader for the compiled survey kernel in ``_kernel.c``.

On first use the C source is compiled with the system C compiler into
``${XDG_CACHE_HOME:-~/.cache}/mealygroup/``, under a name keyed by the
sha256 of the source and the compile command, and loaded with ctypes.
Whenever that is impossible (no compiler, a failed build, an unwritable or
unsafe cache directory) :func:`compiled_scan` returns None and the survey
runs the Python reference scan instead.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import os
import subprocess
import tempfile
from pathlib import Path

_CC = "cc"
_SOURCE = Path(__file__).with_name("_kernel.c")

_I32 = ctypes.c_int32
_I32P = ctypes.POINTER(_I32)
_ARGTYPES = [_I32, _I32, _I32, _I32P, _I32P, _I32, _I32P, _I32, _I32, _I32, _I32P, _I32, _I32P,
             ctypes.POINTER(ctypes.c_uint64), ctypes.POINTER(ctypes.c_int64), _I32P]


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "mealygroup"


@functools.lru_cache(maxsize=None)
def _load(cc: str, cache: Path):
    """The kernel's ``mg_scan``, built into ``cache`` if needed, or None."""
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
        scan = ctypes.CDLL(str(lib)).mg_scan
    except (OSError, AttributeError, subprocess.CalledProcessError):
        return None
    scan.argtypes = _ARGTYPES
    scan.restype = ctypes.c_int
    return scan


def compiled_scan(nxt, emit0, allowed, include_root, n_max):
    """A twin of ``analysis._scan_exact`` with the machine's closure
    statistics bound in: ``scan(prefix, active, n)`` for ``n <= n_max``.
    None when the kernel cannot be loaded or a section word of length
    ``n_max`` does not fit in 64 bits."""
    k, m = len(nxt), len(nxt[0])
    bits = max(1, (k - 1).bit_length())
    if n_max * bits > 64:
        return None
    fn = _load(_CC, _cache_dir())
    if fn is None:
        return None
    tables = [(_I32 * (k * m))(*itertools.chain.from_iterable(t)) for t in (nxt, emit0)]
    states = (_I32 * len(allowed))(*allowed)

    def scan(prefix, active, n):
        if n * bits > 64:
            raise ValueError(f"words of length {n} do not fit the kernel's 64-bit packing")
        sigmas = (_I32 * (len(active) * k))(*itertools.chain.from_iterable(active))
        examined, best, witness = ctypes.c_uint64(), (ctypes.c_int64 * 2)(), (_I32 * (2 * n))()
        rc = fn(k, m, bits, *tables, len(allowed), states, bool(include_root), n, len(prefix),
                (_I32 * len(prefix))(*prefix), len(active), sigmas, examined, best, witness)
        if rc != 0:
            raise MemoryError("the compiled survey kernel ran out of memory")
        if not examined.value:
            return 0, -1, None, -1, None
        return examined.value, best[0], tuple(witness[:n]), best[1], tuple(witness[n:])

    return scan
