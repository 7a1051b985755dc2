"""In-memory span recorder that times library functions from outside.

A ``Recorder`` replaces chosen functions with wrappers that record one span
per call: name, start, end, the enclosing span and an operation id. Each
top-level call (one with no traced caller) starts a new operation, and every
span inside it shares that operation's id. A function is replaced
everywhere its callers look it up: on its own module, on every module that
bound it by ``from ... import``, or on its class for a method. ``restore`` puts every
original back, so code run afterwards is the unwrapped code.

The recorder is single-threaded: spans nest as calls do, so a span's child
spans never overlap and its self time is its duration minus theirs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at top level
    op: int                 # id shared by a top-level call and its callees
    info: dict | None = None  # values read off the call's arguments or result

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._clock = clock

    def wrap(self, name: str, fn, note=None):
        """A wrapper of ``fn`` recording one span per call.

        ``note(args, kwargs, result)``, when given, returns a dict kept on the
        span; it runs after the span ends, so its cost is not in the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            if parent is None:
                self.op += 1
            span = Span(name, 0.0, 0.0, parent, self.op)
            self.spans.append(span)
            self._open.append(index)
            span.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._open.pop()
            if note is not None:
                span.info = note(args, kwargs, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, aliases=(), note=None):
        """Trace ``owner.attr`` and every module-level alias of it.

        ``aliases`` are modules whose globals may hold the same function
        object under any name; each such binding is replaced too.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, note)
        self._replace(owner, attr, original, wrapper)
        for module in aliases:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original replaced by ``patch``, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def tracing(self, targets, aliases=()):
        """Patch each ``(owner, attr, name, note)`` target for the block."""
        try:
            for owner, attr, name, note in targets:
                self.patch(owner, attr, name, aliases, note)
            yield self
        finally:
            self.restore()

    def clear(self) -> None:
        self.spans.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op, "info": s.info}) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


@dataclass
class Totals:
    calls: int
    s: float
    self_s: float
    infos: list


def totals_by_name(spans) -> dict[str, Totals]:
    """Calls, summed duration, summed self time and infos, per span name.

    Durations are summed over every span of a name, which is exact as long
    as no traced function calls itself, directly or through another.
    """
    out: dict[str, Totals] = {}
    for span, own in zip(spans, self_times(spans)):
        t = out.setdefault(span.name, Totals(0, 0.0, 0.0, []))
        t.calls += 1
        t.s += span.duration
        t.self_s += own
        if span.info is not None:
            t.infos.append(span.info)
    return out


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
