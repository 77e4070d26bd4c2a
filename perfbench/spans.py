"""Span recorder and attribute patcher for the traced benchmark run.

A span is (name, start, end, parent).  Spans are kept in memory while the
program runs and summarised afterwards.  A span's self time is its duration
minus the union of its direct children's intervals.
"""

from __future__ import annotations

import functools
import threading
import time


class Recorder:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent span or None, start, end]
        self._local = threading.local()

    def open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, stack[-1] if stack else None, 0.0, 0.0]
        self.spans.append(span)  # one append: safe under the interpreter lock
        stack.append(span)
        span[2] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._local.stack.pop()

    def tree(self) -> "SpanTree":
        index = {id(s): i for i, s in enumerate(self.spans)}
        return SpanTree(
            [s[0] for s in self.spans],
            [s[2] for s in self.spans],
            [s[3] for s in self.spans],
            [-1 if s[1] is None else index[id(s[1])] for s in self.spans],
        )


class SpanTree:
    """Finished spans as parallel lists; `parents[i]` is an index or -1."""

    def __init__(self, names, starts, ends, parents):
        self.names = list(names)
        self.starts = list(starts)
        self.ends = list(ends)
        self.parents = list(parents)

    def __len__(self) -> int:
        return len(self.names)

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: dict[int, list[int]] = {}
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(idx)
        out = []
        for idx in range(len(self.names)):
            covered = 0.0
            lo = hi = None
            for c in sorted(children.get(idx, ()), key=self.starts.__getitem__):
                s, e = self.starts[c], self.ends[c]
                if hi is None or s > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            if hi is not None:
                covered += hi - lo
            out.append(self.duration(idx) - covered)
        return out

    def outermost(self, names) -> list[int]:
        """Spans named in `names` with no ancestor named in `names`, so that
        nested or recursive calls are not counted twice."""
        names = frozenset(names)
        out = []
        for idx, name in enumerate(self.names):
            if name not in names:
                continue
            parent = self.parents[idx]
            while parent >= 0 and self.names[parent] not in names:
                parent = self.parents[parent]
            if parent < 0:
                out.append(idx)
        return out

    def total(self, names) -> float:
        """Time covered by the outermost spans named in `names`."""
        return sum(self.duration(i) for i in self.outermost(names))

    def count(self, name: str) -> int:
        return self.names.count(name)


class Patcher:
    """Replaces attributes with span-recording wrappers and restores the
    originals.  A target is an (owner, attribute) pair, where the owner is a
    module or a class and holds the attribute in its own namespace."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def wrap(self, name: str, targets, on_result=None) -> None:
        """Record a span named `name` around every call through `targets`;
        `on_result` sees each return value."""
        for owner, attr in targets:
            original = vars(owner)[attr]
            wrapper = self._wrappers.get(id(original))
            if wrapper is None:
                wrapper = self._wrappers[id(original)] = self._make(name, original, on_result)
            self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _make(self, name, fn, on_result):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @property
    def saved(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every installed replacement."""
        return list(self._saved)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()
