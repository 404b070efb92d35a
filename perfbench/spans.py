"""Span recording around the package's public functions, from outside.

A `Tracer` replaces a function at each place it is looked up (the module
attribute that callers resolve at call time) with a wrapper that records
one span per call: id, name, start, end, parent span id, task id and a
small `info` value derived from the arguments and the return value or
exception. Spans stay in memory until `write` is called at the end of the
run.

Parents come from a per-thread stack. A span opened in a worker thread
with an empty stack (the program's own thread pool) takes the innermost
span open in the main thread as its parent, which is the call that is
waiting on the pool.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    task: object
    info: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task = None
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, describe=None):
        """Return `fn` wrapped to record a span named `name`. `describe`
        maps (args, kwargs, result, exception) to the span's info."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                info = describe(args, kwargs, result, error) if describe else None
                self.spans.append(Span(sid, name, start, end, parent, self.task, info))

        return traced

    def patch(self, module_name: str, attr: str, name: str, describe=None):
        """Wrap `module_name.attr` in place; skip an attribute that does not
        exist (a later version of the package may have removed it)."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is not None:
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, describe))

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path, origin: float = 0.0):
        """Write the spans as gzipped JSON lines, times relative to `origin`."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps([
                    s.id, s.name, s.start - origin, s.end - origin, s.parent,
                    s.task, s.info,
                ]) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its child
    spans cover. Children that overlap one another (calls from several
    threads) are counted once, as the union of their intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out
