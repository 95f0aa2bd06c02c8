"""In-memory span tracer that times calls into vigkey from outside the package.

A traced run replaces module attributes (``corpus.segment``, ``nn.gradients``
and so on) with wrappers that record one span per call: name, start, end and
the index of the enclosing span.  Spans stay in memory until the run ends.
Nothing under ``src/`` is edited; ``restore()`` puts every original back.

A span's self time is its duration minus the part of that interval covered
by its direct children (``self_times``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


@dataclass
class LayerTotals:
    calls: int
    total_s: float
    self_s: float


def totals_by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    """Call count, summed duration and summed self time for each span name."""
    out: dict[str, LayerTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, LayerTotals(0, 0.0, 0.0))
        entry.calls += 1
        entry.total_s += span.end - span.start
        entry.self_s += own
    return out


class Tracer:
    """Records spans around wrapped callables; single-threaded use only."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Callable[[tuple, dict, object], dict[str, float]] | None = None,
        drain: bool = False,
    ) -> None:
        """Replace owner.attr with a timing wrapper.

        `count(args, kwargs, result)` returns counter increments, added after
        the span closes.  With `drain`, the result is an iterator that is
        consumed inside the span (a generator does its work only when read)
        and handed back as an iterator over the drained items.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
                if drain:
                    result = list(result)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return iter(result) if drain else result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str | Path) -> None:
        """Dump every span as [name, start, end, parent], plus the counters."""
        doc = {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(self.counts),
        }
        Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")
