"""In-memory spans recorded around calls into the program's public functions.

A span is (name, start, end, parent index).  Spans are kept only inside an
operation span that the workload opens around each timed operation, so the
warm-up, input generation and correctness checks leave no trace.  A span's
self time is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index]
        self.stack = []           # indices of open spans
        self.counts = {}          # (operation index, counter name) -> total
        self.absent = []          # wrapped names the program no longer has
        self.backward_peak_bytes = 0
        self.measure_peak = False
        self._patched = []        # (owner, attribute, original)

    # -- recording -------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span around one timed operation; nothing is recorded outside one."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def count(self, name: str, amount: int = 1) -> None:
        if self.stack:
            key = (self.stack[0], name)
            self.counts[key] = self.counts.get(key, 0) + amount

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- patching ----------------------------------------------------------------
    def _patch(self, owner, attribute: str, make) -> None:
        original = owner.__dict__.get(attribute) if isinstance(owner, type) \
            else getattr(owner, attribute, None)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attribute}")
            return
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))

    def wrap(self, owner, attribute: str, name) -> None:
        """Record a span around every call of owner.attribute.

        `name` is the span name, or a function of the call's arguments that
        returns it (used to tell the train pass of run_epoch from the val pass).
        """
        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.stack:
                    return fn(*args, **kwargs)
                index = self._open(name(args, kwargs) if callable(name) else name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(index)
            return wrapper
        self._patch(owner, attribute, make)

    def wrap_counter(self, owner, attribute: str, counter: str, when=None, amount=None) -> None:
        """Count calls of owner.attribute made inside an operation.

        `when()` can restrict counting further; `amount(args, kwargs)`, read
        after the call returns, replaces the count of one per call.
        """
        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.stack or (when is not None and not when()):
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                self.count(counter, 1 if amount is None else amount(args, kwargs))
                return result
            return wrapper
        self._patch(owner, attribute, make)

    def wrap_peak(self, owner, attribute: str, name: str) -> None:
        """A span, plus the peak memory traced during the call while
        `measure_peak` is set (kept apart because tracing allocations slows
        every one of them)."""
        def make(fn):
            def wrapper(*args, **kwargs):
                index = self._open(name) if self.stack else None
                if self.measure_peak:
                    tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if self.measure_peak:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        self.backward_peak_bytes = max(self.backward_peak_bytes, peak)
                    if index is not None:
                        self._close(index)
            return wrapper
        self._patch(owner, attribute, make)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------------
    def root_of(self) -> list:
        """For every span, the index of the operation span it lies in."""
        out = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            out.append(i if parent == -1 else out[parent])
        return out

    def self_times(self) -> list:
        own = [s[2] - s[1] for s in self.spans]
        for name, start, end, parent in self.spans:
            if parent != -1:
                own[parent] -= end - start
        return own

    def nesting_errors(self, start: float, end: float) -> list:
        """Spans that break nesting: left open, outside their parent, overlapping
        an earlier sibling, or (for operation spans) outside [start, end].

        When there are none, every self time is non-negative and the self
        times sum to the operations' total time, which is at most end - start.
        """
        errors = []
        last_end = {}             # parent index -> end of its latest child so far
        for i, (name, s, e, parent) in enumerate(self.spans):
            lo, hi = (start, end) if parent == -1 else self.spans[parent][1:3]
            if e is None or hi is None:
                errors.append(f"span {i} ({name}) or its parent was never closed")
            elif not lo <= s <= e <= hi:
                errors.append(f"span {i} ({name}) lies outside its parent")
            elif s < last_end.get(parent, lo):
                errors.append(f"span {i} ({name}) overlaps an earlier sibling")
            else:
                last_end[parent] = e
        return errors

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, spans=self.spans, absent=self.absent,
                   counts=[[op, name, n] for (op, name), n in self.counts.items()])
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)
