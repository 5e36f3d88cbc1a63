"""In-memory spans around the benchmark's calls into burstcover.

A span records its name, start, end, parent span and the run it belongs
to.  Self time is a span's duration minus the time its direct children
cover, accumulated per name as spans close, so the per-layer totals are
exact even though the full span list is only written out at the end.

`NullTracer` is what untraced passes use: its spans are a shared no-op
context manager, so the timed code is the same in both modes.
"""

from __future__ import annotations

import contextlib
import gzip
import json
from array import array
from time import perf_counter_ns

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    def span(self, name: str):
        return _NULL_SPAN


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin_ns = perf_counter_ns()
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # five int64 per finished span: id, parent id (-1 at the root),
        # name index, start and end in ns after origin_ns
        self.records = array("q")
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[_Span] = []
        self._next_id = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _finish(self, sp: "_Span", end: int) -> None:
        self._stack.pop()
        dur = end - sp.start
        name = sp.name
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - sp.child_ns
        self.calls[name] = self.calls.get(name, 0) + 1
        if sp.parent is not None:
            sp.parent.child_ns += dur
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        self.records.extend((sp.id, -1 if sp.parent is None else sp.parent.id, idx,
                             sp.start - self.origin_ns, end - self.origin_ns))

    def write_jsonl(self, path) -> int:
        """Append every finished span as one JSON line (gzip member); returns the count."""
        rec = self.records
        with gzip.open(path, "at", compresslevel=1) as fh:
            for k in range(0, len(rec), 5):
                parent = rec[k + 1]
                fh.write(json.dumps({
                    "run": self.run_id,
                    "id": rec[k],
                    "parent": None if parent < 0 else parent,
                    "name": self.names[rec[k + 2]],
                    "start_ns": rec[k + 3],
                    "end_ns": rec[k + 4],
                }) + "\n")
        return len(rec) // 5


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start", "child_ns")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else None
        self.id = tr._next_id
        tr._next_id += 1
        self.child_ns = 0
        tr._stack.append(self)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._finish(self, perf_counter_ns())
        return False
