"""In-memory spans for the traced benchmark run.

A span is (id, name, start, end, parent id, run id, attrs).  Spans nest
by a stack: a span opened while another is open becomes its child.  The
benchmark is a single closed-loop caller, so children of one span never
overlap and every child lies inside its parent.  Then, and only then, the
self times of a root's subtree sum to the root's duration, which the
benchmark checks.

Functions that ``mealygroup`` looks up by module attribute at call time
(``mealygroup.cli.survey`` and friends) are traced by swapping the
attribute for a wrapper; ``Tracer.restore`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import json
import time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, id, name, start, parent, run, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sp = Span(len(self.spans), name, time.perf_counter(), self.current(), self.run_id, attrs)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def add(self, name: str, start: float, end: float, **attrs) -> Span:
        """Record an already finished span as a child of the open one."""
        sp = Span(len(self.spans), name, start, self.current(), self.run_id, attrs)
        sp.end = end
        self.spans.append(sp)
        return sp

    def current(self):
        return self._stack[-1] if self._stack else None

    def patch(self, module, attr: str, replacement) -> None:
        """Set ``module.attr``; :meth:`restore` puts the original back."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module, attr: str, describe=None) -> None:
        """Run ``module.attr`` inside a span named ``<module>.<attr>``;
        ``describe(args, result)`` gives attributes to record on it."""
        original = getattr(module, attr)
        name = f"{module.__name__}.{attr}"

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
                if describe is not None:
                    sp.attrs.update(describe(args, result))
                return result

        self.patch(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def subtree(self, root: Span) -> list:
        """``root`` and every span below it, in creation order."""
        inside = {root.id}
        out = [root]
        for sp in self.spans[root.id + 1 :]:
            if sp.parent in inside:
                inside.add(sp.id)
                out.append(sp)
        return out

    def self_times(self, root: Span) -> dict:
        """Span id -> its duration minus the part of it that the union of
        its children's intervals covers."""
        spans = self.subtree(root)
        children = {}
        for sp in spans[1:]:
            children.setdefault(sp.parent, []).append(sp)
        out = {}
        for sp in spans:
            covered = 0.0
            reach = sp.start
            for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
                lo, hi = max(ch.start, reach), min(ch.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[sp.id] = sp.seconds - covered
        return out

    def dump(self, path, record: dict) -> None:
        spans = [sp.as_dict() for sp in self.spans]
        path.write_text(json.dumps({"record": record, "spans": spans}) + "\n")


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        pass
