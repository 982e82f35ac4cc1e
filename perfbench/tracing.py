"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name (``<layer>.<call>``), a start, an end and its parent
span; all spans of one workload run share a trace id.  Spans stay in
memory and are written out once, when the run ends.  A layer's self time
is the duration of its spans minus the time their child spans cover.

With tracing off the benchmark uses :data:`NULL_TRACER`, whose ``span``
returns one shared no-op context manager, so untraced runs pay no
per-span bookkeeping.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    trace_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans in call order."""

    enabled = True

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), parent, name, time.perf_counter(), 0.0, self.trace_id)
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str, within: Optional[Span] = None) -> List[Span]:
        """Spans called ``name``, optionally only those below ``within``."""
        found = [span for span in self.spans if span.name == name]
        if within is None:
            return found
        return [span for span in found if self._descends(span, within)]

    def _descends(self, span: Span, ancestor: Span) -> bool:
        parent = span.parent_id
        while parent is not None:
            if parent == ancestor.span_id:
                return True
            parent = self.spans[parent].parent_id
        return False

    def self_times(self, root: Span) -> Dict[str, float]:
        """Self time per layer over ``root`` and every span below it.

        Children of one span run one after another, so the time they cover
        is the sum of their durations.
        """
        child_time: Dict[int, float] = defaultdict(float)
        members = [root] + [span for span in self.spans if self._descends(span, root)]
        for span in members[1:]:
            child_time[span.parent_id] += span.duration
        totals: Dict[str, float] = defaultdict(float)
        for span in members:
            totals[span.layer] += span.duration - child_time[span.span_id]
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]))


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._NULL


NULL_TRACER = NullTracer()
