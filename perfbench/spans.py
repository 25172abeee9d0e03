"""In-memory span recorder for the benchmark's traced runs.

A span records one call into a layer of the program: its name, start and
end (``time.perf_counter`` seconds), the index of the span that was open
when it started (its parent, ``-1`` for a root) and the id of the unit
of work it belongs to (a block or a request).  Spans are kept in memory
and written out once, when the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Every unit of work is one or more root spans (``block``;
``request`` and ``certify``), so per unit the self times of all spans
sum exactly to the roots' durations; a root's own self time is time no
layer span covered.

A disabled tracer records nothing: :meth:`Tracer.call` is then a plain
call, so the end-to-end run pays one extra Python call per layer call.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Set


class Tracer:
    """Span recorder; one per run, shared by the run's threads."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent, unit]`` per span, in start order.
        self.spans: List[list] = []
        #: Names of the root spans.
        self.roots: Set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, local.__dict__.get("unit")]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def root(self, kind: str, unit: Any, fn: Callable, *args: Any) -> Any:
        """Run (part of) one unit of work as a root span named ``kind``."""
        self.roots.add(kind)
        self._local.unit = unit
        return self.call(kind, fn, *args)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name`` (while
        the tracer is enabled)."""
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def root_seconds(self) -> float:
        """Summed duration of the root spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, unit) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "unit": unit,
                        }
                    )
                    + "\n"
                )
