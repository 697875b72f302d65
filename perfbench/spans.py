"""Span tracer for the traced benchmark run.

The tracer patches public functions of ``resnewt`` from the outside, at the
names their callers look up, and records one span per call: name, start,
end, parent span and instance id.  Spans stay in memory until the run ends.
Very frequent calls (minor-cache predicates, ``det_bareiss``) are counted
and timed without a span each; their time is charged to the enclosing span
as covered by a child, so self times stay exact.

A span's layer is the part of its name before the first dot.
"""

import functools
from time import perf_counter

# Span fields, in the order of each span list.
NAME, START, END, PARENT, INSTANCE, HIDDEN = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.flat = {}  # name -> [layer, calls, seconds]
        self.instance = None
        self._stack = []
        self._undo = []

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        orig = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(orig)(wrapper(orig)))
        self._undo.append((owner, attr, orig))

    def span(self, owner, attr, name, on_result=None):
        """Record a span around every call of ``owner.attr``.

        ``on_result(args, result)`` runs after each call, outside the span.
        """
        spans, stack = self.spans, self._stack

        def wrapper(orig):
            def call(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.instance, 0.0]
                sid = len(spans)
                spans.append(rec)
                stack.append(sid)
                rec[START] = perf_counter()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    rec[END] = perf_counter()
                    stack.pop()
                if on_result is not None:
                    on_result(args, result)
                return result

            return call

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr, name, layer):
        """Count and time every call of ``owner.attr`` without a span."""
        spans, stack = self.spans, self._stack
        acc = self.flat.setdefault(name, [layer, 0, 0.0])

        def wrapper(orig):
            def call(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    acc[1] += 1
                    acc[2] += dt
                    if stack:
                        spans[stack[-1]][HIDDEN] += dt

            return call

        self._patch(owner, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def self_times(spans):
    """Each span's duration minus the time its children cover.

    Children of one span run one after another in a single thread, so the
    time they cover is the sum of their durations plus the time of calls
    counted without a span (``HIDDEN``).
    """
    covered = [s[HIDDEN] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def layer_self_times(spans, flat):
    """Self seconds per layer: spans by name prefix plus span-less calls."""
    out = {}
    for s, t in zip(spans, self_times(spans)):
        layer = s[NAME].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    for layer, _, secs in flat.values():
        out[layer] = out.get(layer, 0.0) + secs
    return out


def nearest_ancestor(spans, sid, names):
    """Name of the closest ancestor of span ``sid`` whose name is in ``names``."""
    p = spans[sid][PARENT]
    while p is not None:
        if spans[p][NAME] in names:
            return spans[p][NAME]
        p = spans[p][PARENT]
    return None
