"""In-process spans around calls into the package's public functions.

A :class:`Tracer` replaces module attributes of ``extremalflow`` with
timing wrappers for the duration of a ``with tracer.installed():``
block and restores them afterwards; the package source is never
touched.  A function is wrapped in every package module that binds it,
so the wrapper sits at the attribute its caller looks up (for example
``extremalflow.classifier.evolve`` for calls made by ``classify``).

Spans are kept in memory as (id, name, start, end, parent, thread, cpu),
where ``cpu`` is the CPU time the calling thread spent inside the span;
unlike ``end - start`` it excludes time spent waiting for the
interpreter lock.  Parent stacks are per thread.  Work a traced pool hands to its worker
threads is parented to the span open in the submitting thread, so the
time a ``sweep`` spends waiting on its workers is not counted as its
own.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

ROOT = 0


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    cpu: float


class Target(NamedTuple):
    """One function to wrap: ``module.attr`` recorded as span ``name``.

    ``label(args, kwargs)`` returns a suffix appended to the span name;
    ``observe(result, count)`` reads counters off the return value,
    calling ``count(key, amount)``.
    """

    module: str
    attr: str
    label: Callable | None = None
    observe: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else ROOT
            sid = next(self._ids)
            name = target.name
            if target.label is not None:
                name = f"{name}.{target.label(args, kwargs)}"
            stack.append(sid)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), cpu)
                )
            if target.observe is not None:
                target.observe(result, self.count)
            return result

        return traced

    def _adopt(self, parent: int, fn, *args, **kwargs):
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _pool_class(self, base: type) -> type:
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else ROOT
                return super().submit(tracer._adopt, parent, fn, *args, **kwargs)

        return TracedPool

    @contextlib.contextmanager
    def installed(self, package, targets):
        """Wrap every target in each loaded module of ``package``.

        A target whose function the package no longer defines is
        skipped; its metrics then read zero.
        """
        prefix = package.__name__ + "."
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (mod is package or name.startswith(prefix))
        ]
        saved = []
        for target in targets:
            home = getattr(package, target.module, None)
            fn = getattr(home, target.attr, None)
            if fn is None:
                continue
            wrapped = self.wrap(target, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        for mod in modules:
            pool = vars(mod).get("ThreadPoolExecutor")
            if isinstance(pool, type):
                saved.append((mod, "ThreadPoolExecutor", pool))
                mod.ThreadPoolExecutor = self._pool_class(pool)
        try:
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
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


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are the spans naming it as parent, in whatever thread they
    ran; overlapping children (pool workers) are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = (s.end - s.start) - _covered(kids)
    return out


class Totals(NamedTuple):
    calls: int
    busy: float
    self: float


def totals_by_name(spans) -> dict[str, Totals]:
    """Calls, summed duration and summed self time per span name."""
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    selft = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        selft[s.name] += own[s.id]
    return {n: Totals(calls[n], busy[n], selft[n]) for n in calls}
