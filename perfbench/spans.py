"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent, request id, thread).  Spans are
kept in a list while the benchmark runs and written once at the end as
a Chrome trace-event file (``chrome://tracing`` or ui.perfetto.dev load
it offline).  The layer of a span is the part of its name before the
first dot (``serve.submit`` belongs to ``serve``).

A layer's self time is the time its spans cover minus the part of each
span that its child spans cover.  Disabled recorders keep nothing: the
end-to-end figures are measured with recording off.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: (span id, name, start s, end s, parent id or None, request id or None, thread id)
Span = Tuple[int, str, float, float, Optional[int], Optional[int], int]


class Recorder:
    """Collects spans when enabled; every method is a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._append((span_id, name, start, end, parent, request,
                          threading.get_ident()))

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, request: Optional[int] = None,
            thread: int = 0) -> Optional[int]:
        """Record a span whose ends were measured elsewhere; returns its id."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        self._append((span_id, name, start, end, parent, request, thread))
        return span_id

    def _append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every span with this exact name."""
        return [end - start for _, n, start, end, _, _, _ in self.spans if n == name]

    def self_times(self) -> Dict[str, float]:
        """Layer -> self time in seconds."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: Dict[str, float] = {}
        for span_id, name, start, end, _, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + max(end - start - covered, 0.0)
        return totals

    def write_chrome(self, path: str) -> None:
        """Write every span as a complete ("X") trace event, times in us."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": os.getpid(),
                "tid": thread,
                "args": {"id": span_id, "parent": parent, "request": request},
            }
            for span_id, name, start, end, parent, request, thread in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
