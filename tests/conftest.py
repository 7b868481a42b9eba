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
    """Every ``mg_scan`` call of a test, as (thread, arguments).  When
    ``before`` is set, the worker thread runs it just before its call."""

    before = None

    def counters(self):
        """(tasks taken, tasks finished, tasks) of the scan called first.
        A worker takes no task once the stop flag is set, and one past the
        last when none is left."""
        args = self[0][1]
        shared, count = args[-1], args[13]  # mg_scan's shared counters and ntasks
        return min(shared[0], count), shared[1], count


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
            return self.lib.mg_scan(*args)

    monkeypatch.setattr(_kernel, "_library", lambda: (lib := load()) and Recording(lib))
    return calls
