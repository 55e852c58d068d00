"""Spans recorded from outside the library, around calls into its modules.

A span is (name, start, end, parent, task): `name` is `<module>.<function>`,
`parent` is the index of the enclosing span (-1 at task level) and `task`
is the id of the benchmark task that made the call.  Spans are kept in
memory and written out once, when the benchmark ends.

When tracing is off, `call` invokes the function directly and `wrap` and
`patched` change nothing, so an untraced task runs the same library code
with no instrumentation in its path.
"""

from __future__ import annotations

import contextlib
import functools
import tracemalloc
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.enabled = False
        self.task = -1
        self._stack: list[int] = []

    def begin(self, task: int, enabled: bool) -> None:
        self.task = task
        self.enabled = enabled
        self._stack.clear()

    def end(self) -> None:
        self.enabled = False

    def call(self, name: str, fn, *args, alloc: bool = False):
        """Call fn(*args); when tracing, record a span and optional peak allocation."""
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.task]
        self.spans.append(span)
        self._stack.append(index)
        if alloc:
            tracemalloc.start()
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            if alloc:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.count(f"{name.split('.')[0]}.peak_alloc_mb", peak / 2**20)
            self._stack.pop()

    def wrap(self, name: str, fn, alloc: bool = False):
        """fn itself when tracing is off, else a wrapper that records a span per call."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args):
            return self.call(name, fn, *args, alloc=alloc)

        return traced

    def count(self, name: str, value: float) -> None:
        self.counts[self.task][name] += value

    @contextlib.contextmanager
    def patched(self, module, names: dict[str, str], alloc: tuple[str, ...] = ()):
        """Replace module attributes by span-recording wrappers while tracing.

        `names` maps an attribute of `module` to its span name.  The library
        is not edited: only the references a caller looks up at call time
        are swapped, and restored on exit.
        """
        if not self.enabled:
            yield
            return
        saved = {attr: getattr(module, attr) for attr in names}
        try:
            for attr, span_name in names.items():
                setattr(module, attr, self.wrap(span_name, saved[attr], alloc=attr in alloc))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, task in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]
