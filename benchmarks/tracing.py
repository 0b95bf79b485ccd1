"""In-memory spans around the benchmark's calls into machina.

A span is (name, start, end, parent, op id).  The benchmark opens one span
per op and one child span per public-function call it makes, named
``<layer>.<function>``.  Spans stay in memory and are written out once, at
the end of the run.  A span's self time is its duration minus the
durations of its children, so the self time of an op span is the op time
that no layer span accounts for.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    error: bool = False
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    The tracer is synchronous, so a span's children are disjoint and lie
    inside it.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


class Tracer:
    """Collects spans; ``call`` runs one library function inside a child span.

    With ``enabled`` false, ``call`` is a plain call and nothing is kept, so
    the untraced path pays one attribute test per call.
    """

    def __init__(self, enabled: bool, counters=None):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters = counters or {}
        self._open: list[int] = []

    def begin(self, name: str, op: int | None = None) -> int:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, error: bool = False):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        if self._open and self._open[-1] == index:
            self._open.pop()

    def call(self, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``<layer>.<function>``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        index = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.end(index, error=True)
            raise
        self.end(index)
        counter = self.counters.get(name)
        if counter is not None:
            span = self.spans[index]
            span.counts.update(counter(span, args, result))
        return result

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
