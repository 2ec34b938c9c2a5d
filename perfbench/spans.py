"""Timing spans recorded around the library's layer boundaries.

A traced run replaces a problem's operator and gather-scatter objects with
proxies that forward every attribute to the real object and time the
methods named in OPERATOR_METHODS and GATHER_SCATTER_METHODS.  The library
code that runs is the same as in an untraced run, including calls made
from worker threads, so the trace follows the untraced path.

Spans are kept in memory.  Each carries a name, start and end times, the
id of the span that caused it, the thread id and the id of the benchmark
run it belongs to.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

OPERATOR_METHODS = {"apply_local": "operators.apply"}
GATHER_SCATTER_METHODS = {"gather_scatter": "assembly.gs",
                          "apply_mask": "assembly.mask",
                          "local_dot": "assembly.dot"}
ROOT_SPAN = "bakeoff.run"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: int | None
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(interval, children) -> float:
    """Duration of `interval` minus the part its children's intervals cover.

    Children are clipped to the parent and overlapping children (spans of
    concurrent threads) are counted once.
    """
    start, end = interval
    clipped = [(max(s, start), min(e, end)) for (s, e) in children
               if min(e, end) > max(s, start)]
    return (end - start) - union_length(clipped)


def _nbytes(args, out) -> int:
    first = args[0] if args else None
    return getattr(first, "nbytes", 0) + getattr(out, "nbytes", 0)


class Tracer:
    """Collects spans from any thread; one benchmark run at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._runs = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._run: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """Return fn with every call recorded as a span called `name`."""
        def traced(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            # A worker thread has an empty stack; its caller is the run.
            parent = stack[-1] if stack else self._root
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), self._run,
                                   _nbytes(args, out)))
            return out
        return traced

    def call_run(self, fn, *args):
        """Call fn(*args) as one benchmark run under a root span.

        Returns (result, run id, end time of the call).
        """
        run = self._run = next(self._runs)
        sid = self._root = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = self._run = None
        self.spans.append(Span(sid, ROOT_SPAN, start, end, None,
                               threading.get_ident(), run))
        return out, run, end


class TracedProxy:
    """Forward every attribute to `target`; time the methods in `methods`.

    `methods` maps a method name to the span name its calls record.
    """

    def __init__(self, target, tracer: Tracer, methods: dict):
        object.__setattr__(self, "_target", target)
        for attr, span_name in methods.items():
            object.__setattr__(self, attr,
                               tracer.wrap(span_name, getattr(target, attr)))

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __setattr__(self, name, value):
        setattr(self._target, name, value)
