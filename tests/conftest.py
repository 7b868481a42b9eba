import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mealygroup import _kernel, hanoi_automaton


@pytest.fixture(scope="session")
def ha3():
    return hanoi_automaton(3)


@pytest.fixture(scope="session")
def ha4():
    return hanoi_automaton(4)


@pytest.fixture(scope="session")
def ha5():
    return hanoi_automaton(5)


class ScanCalls(list):
    """Every ``mg_scan`` call of a test, as (thread, arguments), and in
    ``codes`` what each call returned, in the order they ended.  When
    ``before`` is set, the worker thread runs it just before its call."""

    before = None

    def __init__(self):
        super().__init__()
        self.codes = []

    def counters(self):
        """(subtrees claimed, subtrees done) of the scan called first: the
        counters its workers share.  A worker claims no subtree once the
        stop flag is set, and one past the last when none is left."""
        shared = self[0][1][-1]  # mg_scan's shared counters
        return shared[0], shared[1]


@pytest.fixture
def scan_calls(monkeypatch):
    """The :class:`ScanCalls` of the test: the kernel library is wrapped
    so that each ``mg_scan`` call is recorded."""
    calls = ScanCalls()
    load = _kernel._library

    class Recording:
        def __init__(self, lib):
            self.lib = lib

        def __getattr__(self, name):
            return getattr(self.lib, name)

        def mg_scan(self, *args):
            calls.append((threading.current_thread(), args))
            if calls.before:
                calls.before()
            rc = self.lib.mg_scan(*args)
            calls.codes.append(rc)
            return rc

    monkeypatch.setattr(_kernel, "_library", lambda: (lib := load()) and Recording(lib))
    return calls
