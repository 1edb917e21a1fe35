"""Spans around calls into the program, recorded from outside it.

A :class:`Tracer` swaps public functions and methods of imported
modules for thin wrappers that record a span (name, start, end, parent
span) around every call, and puts the originals back on
:meth:`Tracer.restore`.  No source file of the program changes; the
untraced runs never install a wrapper.  Spans stay in memory and are
aggregated when the measured process ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  The benchmark
reports the self time of its own grouping spans (the op, its halves,
its cells) as the ``*.other.*`` share that no layer span accounts for.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Optional, Union


class Span:
    """One timed interval; *parent* is the index of the enclosing span."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, end: Optional[float] = None,
                 parent: Optional[int] = None, attrs: Optional[dict] = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs or {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps once."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start >= reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times(spans) -> list:
    """Per span: its duration minus what its direct children cover.

    Children are clipped to the parent's interval, and overlapping
    children count once, so a self time is never negative.
    """
    children: dict = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(index, ())
        ]
        result.append(span.seconds - union_length(clipped))
    return result


def subtree(spans, root: int) -> list:
    """Indices of *root* and every span nested under it."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index].parent in inside:
            inside.add(index)
    return sorted(inside)


def enclosing_attr(spans, index: int, key: str):
    """The value of attribute *key* on the nearest enclosing span."""
    parent = spans[index].parent
    while parent is not None:
        if key in spans[parent].attrs:
            return spans[parent].attrs[key]
        parent = spans[parent].parent
    return None


class Tracer:
    """Records spans and counts; installs and removes call wrappers."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._open: dict = {}
        self._patches: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = self._begin(name, attrs)
        try:
            yield
        finally:
            self._end(index)

    def _begin(self, name: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] = self._open.get(name, 0) + 1
        return index

    def _end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: Union[str, Callable, None],
             after: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        *name* is the span name, a callable of the call's arguments
        returning it, or ``None`` to record no span at all.  A call made
        while a span of the same name is open is passed straight
        through, so a layer never nests in itself.  *after*
        (``after(result, *args, **kwargs)``) runs once the call returns
        to read counters off the result or the receiver.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            if span_name is None:
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            if tracer._open.get(span_name):
                return original(*args, **kwargs)
            index = tracer._begin(span_name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            finally:
                tracer._end(index)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self, root: int) -> dict:
        """Span name -> summed duration, over the subtree of *root*."""
        totals: dict = {}
        for index in subtree(self.spans, root):
            span = self.spans[index]
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals

    def self_totals(self, root: int) -> dict:
        """Span name -> summed self time, over the subtree of *root*."""
        own = self_times(self.spans)
        totals: dict = {}
        for index in subtree(self.spans, root):
            name = self.spans[index].name
            totals[name] = totals.get(name, 0.0) + own[index]
        return totals


class NullTracer:
    """The untraced stand-in: spans cost one call and record nothing."""

    _null = nullcontext()

    def span(self, name: str, **attrs):
        return self._null
