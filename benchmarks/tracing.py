"""Spans around calls into the package's public functions, installed from outside.

A :class:`Tracer` replaces each traced function with a wrapper in every
``robust_trees`` module that holds it -- the defining module and every module
that imported the name (``tree.counts_impurity``, ``forest.fit``, ...) -- and
puts the originals back in :meth:`Tracer.restore`.  Spans stay in memory until
:meth:`Tracer.write` dumps them once.

A span's parent is the innermost open span on its own thread.  Work handed to a
thread pool starts with an empty stack there, so its parent is the innermost
open span of the thread that installed the tracer, which is blocked in the call
that owns the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    via: str  # short name of the module whose binding was called
    parent: int | None
    thread: int
    op: str | None
    start: float
    end: float
    cpu: float  # thread CPU time spent inside the call
    count: float | None  # per-call work count, when the target defines one


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None  # benchmark operation the next spans belong to
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self) -> tuple[int, int | None]:
        tid = threading.get_ident()
        with self._lock:
            sid = next(self._ids)
            stack = self._stacks.setdefault(tid, [])
            owner = stack or self._stacks.get(self._main) or [None]
            parent = owner[-1]
            stack.append(sid)
            return sid, parent

    def _exit(self, span: Span) -> None:
        with self._lock:
            self._stacks[span.thread].pop()
            self.spans.append(span)

    def _wrap(self, name: str, via: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            span = Span(sid, name, via, parent, threading.get_ident(), self.op,
                        0.0, 0.0, 0.0, None)
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                self._exit(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(module, function name, counter)`` target at every binding.

        ``counter(args, kwargs, result)`` gives the span's work count, or is None.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "robust_trees" or key.startswith("robust_trees.")]
        for module, fname, count in targets:
            original = getattr(module, fname)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        via = holder.__name__.rsplit(".", 1)[-1]
                        setattr(holder, attr, self._wrap(name, via, original, count))
                        self._patched.append((holder, attr, original))

    def restore(self) -> list[str]:
        """Put every original back; returns the bindings that did not come back."""
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        left = [f"{holder.__name__}.{attr}" for holder, attr, original in self._patched
                if getattr(holder, attr) is not original]
        self._patched.clear()
        return left

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": [asdict(s) for s in self.spans]}, fh)
            fh.write("\n")


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its child spans' intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _union_length([k for k in kids if k[1] > k[0]])
    return out
