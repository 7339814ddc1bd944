"""In-memory spans around the benchmark's calls into each layer.

A span records name, start, end, parent span and run id.  Spans stay in
memory while the benchmark runs and are written out once at the end;
a disabled tracer records nothing and costs one attribute test per
call, so traced and untraced passes run the same code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str


class Tracer:
    def __init__(self, run: str, enabled: bool = True) -> None:
        self.run = run
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start - covered[span.id]
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": [asdict(span) for span in self.spans],
                        "self_s": self.self_times()}, indent=1),
            encoding="utf-8",
        )
