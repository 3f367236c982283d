"""In-memory span recorder for the traced runs.

Spans are recorded from the benchmark's own code, around its calls into
the program's public functions; the program itself is never handed a
tracer.  Each span is ``(name, start, end, parent, rid)``: ``parent`` is
the index of the enclosing span (``-1`` at the root) and ``rid`` the
request id on the serving workload.  A layer's self time is the summed
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional


class SpanRecorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.rids: List[Optional[int]] = []
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float, parent: int = -1,
            rid: Optional[int] = None) -> int:
        """Record a finished span; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.rids.append(rid)
        return len(self.names) - 1

    def span(self, name: str, rid: Optional[int] = None) -> "_Open":
        """Context manager timing a synchronous call; nests by the stack."""
        return _Open(self, name, rid)

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: Dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - child[i]
        return dict(out)

    def write(self, path: Path) -> Path:
        """Write every span as JSON (times in seconds of ``perf_counter``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "rid": r}
            for n, s, e, p, r in zip(self.names, self.starts, self.ends,
                                     self.parents, self.rids)
        ]
        path.write_text(json.dumps({"spans": spans}))
        return path


class _Open:
    __slots__ = ("rec", "name", "rid")

    def __init__(self, rec: SpanRecorder, name: str, rid: Optional[int]) -> None:
        self.rec, self.name, self.rid = rec, name, rid

    def __enter__(self) -> "_Open":
        rec = self.rec
        parent = rec._stack[-1] if rec._stack else -1
        idx = rec.add(self.name, 0.0, 0.0, parent, self.rid)
        rec._stack.append(idx)
        rec.starts[idx] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        idx = self.rec._stack.pop()
        self.rec.ends[idx] = time.perf_counter()
