"""In-memory span tracing around calls into the program's modules.

A span records a name, its start and end on ``time.perf_counter``, and
the index of the span that was open when it started. Spans are taken by
replacing module or class attributes at the places the program's callers
look them up, so the program itself carries no hooks; ``restore`` puts
every original back. One thread, so open spans form a stack.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, 0.0, parent=parent)
        self.spans.append(record)
        self._open.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, count=None):
        """fn inside a span; count(span, args, kwargs, result) may add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                count(record, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another inside it, so the covered
    time is the sum of their durations. Clock rounding can make that sum
    exceed the parent by a tick; self time is clamped at zero.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return [max(0.0, s.seconds - c) for s, c in zip(spans, covered)]


def within(spans: list[Span], index: int, name: str) -> bool:
    """Whether the span at index has an ancestor called name."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
