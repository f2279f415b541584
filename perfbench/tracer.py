"""In-memory span tracer that times the program's layers from outside.

The benchmark never edits ``src/``.  A layer is timed by replacing the name
its caller looks up (a module global, a class attribute) with a wrapper
that records a span around the original call.  Spans live in per-thread
lists in memory and are summarised (or written out) when the run ends.
A layer's self time is its spans' durations minus the part their child
spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
import types
from collections import defaultdict
from typing import Callable, Iterable

#: ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, which every
#: process shares: spans recorded in a server process and request times
#: recorded by its client can be compared directly.
clock = time.perf_counter

#: One span: ``[name, start, end, parent index in the same thread's list]``.
Span = list


class ModuleProxy(types.ModuleType):
    """Stands in for a module at one caller's call site.

    Names given as overrides shadow the module's; every other attribute is
    forwarded, so the caller sees the real module apart from them.
    """

    def __init__(self, module: types.ModuleType, **overrides) -> None:
        super().__init__(module.__name__)
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


class Tracer:
    """Records spans around wrapped calls and restores the originals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list[Span]] = []
        self._patches: list[tuple[object, str, object]] = []
        #: ``(time, name, value)`` per recorded count, so a window can be cut.
        self.events: list[tuple[float, str, float]] = []

    # ----------------------------------------------------------- recording

    def _stack(self) -> tuple[list[Span], list[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def count(self, name: str, value: float = 1.0) -> None:
        self.events.append((clock(), name, float(value)))

    def wrap(
        self,
        name: str,
        function: Callable,
        on_return: Callable[["Tracer", tuple, object], None] | None = None,
    ) -> Callable:
        """``function`` with a span named ``name`` around every call.

        ``on_return(tracer, args, result)`` runs after the span closes, to
        record counts taken from the call's arguments or result.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            spans, stack = self._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    # ------------------------------------------------------------ patching

    @staticmethod
    def _original(owner: object, attr: str) -> object:
        # A class's own ``__dict__`` keeps a classmethod wrapped, to wrap it back.
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, self._original(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner: object, attr: str, name: str, on_return=None) -> None:
        """Wrap the function ``owner.attr`` (module global or class attribute)."""
        original = self._original(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, on_return))
        else:
            wrapped = self.wrap(name, original, on_return)
        self.replace(owner, attr, wrapped)

    def restore(self) -> None:
        """Put every replaced attribute back (the recorded spans stay)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- reading

    def span_lists(self) -> list[list[Span]]:
        with self._lock:
            return [list(spans) for spans in self._threads]


def counts_between(
    events: Iterable[tuple[float, str, float]], start: float, end: float
) -> dict[str, float]:
    """Total value per count name over the events recorded in ``[start, end]``."""
    totals: dict[str, float] = defaultdict(float)
    for at, name, value in events:
        if start <= at <= end:
            totals[name] += value
    return dict(totals)


def self_times(
    span_lists: Iterable[list[Span]],
    keep_root: Callable[[Span], bool] = lambda span: True,
) -> tuple[dict[str, float], list[Span]]:
    """Self seconds per span name, over the trees whose root is kept.

    Returns the totals and the kept roots.  A span's self time is its
    duration minus the durations of its direct children; parents always
    precede their children in a thread's list, so one pass suffices.
    """
    totals: dict[str, float] = defaultdict(float)
    roots: list[Span] = []
    for spans in span_lists:
        children = [0.0] * len(spans)
        root_of = [0] * len(spans)
        for index, (_, start, end, parent) in enumerate(spans):
            if parent is None:
                root_of[index] = index
            else:
                root_of[index] = root_of[parent]
                children[parent] += end - start
        kept: dict[int, bool] = {}
        for index, (name, start, end, _) in enumerate(spans):
            root = root_of[index]
            if root not in kept:
                kept[root] = keep_root(spans[root])
                if kept[root]:
                    roots.append(spans[root])
            if kept[root]:
                totals[name] += (end - start) - children[index]
    return dict(totals), roots
