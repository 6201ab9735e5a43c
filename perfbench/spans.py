"""In-memory call spans for the traced benchmark run.

The tracer replaces a module attribute (a function *binding*, such as
``pipeline.em_reconstruct``) with a wrapper that records one span per call:
its name, start, end, the index of the enclosing span and whether the call
returned.  Because callers look a global name up at call time, wrapping the
binding a module calls through is enough to see calls made inside the
program.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at the root
    ok: bool  # False when the call raised


def span_name(fn) -> str:
    """``<module>.<function>`` of the defining module, e.g. ``model.joint_distribution``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Wraps function bindings and records a span per call while installed.

    ``keep`` names the spans whose arguments and result are kept in
    ``calls`` as ``(span index, args, kwargs, result)``, so that work counts
    can be read after a pass without timing the reading.
    """

    def __init__(self, bindings, keep=()):
        self.keep = frozenset(keep)
        self.spans: list[Span | None] = []
        self.calls: list[tuple] = []
        self._stack: list[int] = []
        self._bindings = [
            (module, attr, getattr(module, attr)) for module, attr in bindings
        ]
        self._wrappers = [self._wrap(fn) for _, _, fn in self._bindings]
        self._originals = {span_name(fn): fn for _, _, fn in self._bindings}

    def install(self) -> None:
        for (module, attr, _), wrapper in zip(self._bindings, self._wrappers):
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, fn in self._bindings:
            setattr(module, attr, fn)

    def original(self, name: str):
        """The unwrapped function recorded under a span name."""
        return self._originals[name]

    def _wrap(self, fn):
        name = span_name(fn)
        spans, stack, calls = self.spans, self._stack, self.calls
        keep = name in self.keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, ok)
            if keep:
                calls.append((index, args, kwargs, result))
            return result

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping or overhanging children are not
    counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, failed calls, self time and inclusive time in seconds."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "failed": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["failed"] += not span.ok
        row["self_s"] += own
        row["total_s"] += span.end - span.start
    return table


def write_spans(spans, path) -> None:
    """One tab-separated line per span: index, parent, name, start, end, ok."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index\tparent\tname\tstart\tend\tok\n")
        for index, span in enumerate(spans):
            fh.write(
                f"{index}\t{span.parent}\t{span.name}\t{span.start:.9f}\t{span.end:.9f}\t{int(span.ok)}\n"
            )
