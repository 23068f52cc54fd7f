"""The in-memory span recorder of the traced run.

A span is (name, start, end, parent, operation id). Spans are opened only by
bench-owned code at layer boundaries reachable from outside the program;
the untraced run never constructs a recorder, so end-to-end numbers carry
no span cost at all.

Totals are aggregated as spans close, keyed by ``(root span name, span
name)``: a layer's *self time* is its span's duration minus the part its
child spans cover (one thread, so children never overlap). Raw spans are
kept up to a cap and written out when the workload ends.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Raw spans kept for the trace file; totals keep counting past the cap.
MAX_KEPT_SPANS = 20_000


class _Span:
    __slots__ = ("rec", "name", "start", "children", "parent", "root", "id", "op")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_Span":
        rec = self.rec
        stack = rec._stack
        self.id = rec._next_id
        rec._next_id += 1
        if stack:
            self.parent = stack[-1]
            self.root = self.parent.root
            self.op = self.parent.op
        else:
            self.parent = None
            self.root = self.name
            rec.operations += 1
            self.op = rec.operations
        self.children = 0.0
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        rec = self.rec
        rec._stack.pop()
        duration = end - self.start
        parent = self.parent
        if parent is not None:
            parent.children += duration
        total = rec.totals.get((self.root, self.name))
        if total is None:
            total = rec.totals[(self.root, self.name)] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - self.children
        if len(rec.spans) < MAX_KEPT_SPANS:
            rec.spans.append(
                (self.id, self.name, self.start, end,
                 parent.id if parent is not None else None, self.op)
            )


class Recorder:
    """Collects spans for one traced workload pass."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id, operation id), in closing order
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        #: (root name, span name) -> [count, total seconds, self seconds]
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        self.operations = 0
        self._stack: List[_Span] = []
        self._next_id = 0

    def reset(self) -> None:
        """Forget everything recorded so far (used after warm-up)."""
        self.spans.clear()
        self.totals.clear()
        self.operations = 0
        self._next_id = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* run inside a span called *name*."""

        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def _sum(self, column: int, name: str, root: Optional[str]) -> float:
        return sum(
            total[column]
            for (span_root, span_name), total in self.totals.items()
            if span_name == name and (root is None or span_root == root)
        )

    def count(self, name: str, root: Optional[str] = None) -> int:
        return int(self._sum(0, name, root))

    def total_s(self, name: str, root: Optional[str] = None) -> float:
        return self._sum(1, name, root)

    def self_s(self, name: str, root: Optional[str] = None) -> float:
        return self._sum(2, name, root)

    def mean_ms(self, name: str, root: Optional[str] = None) -> float:
        count = self.count(name, root)
        return 1e3 * self.total_s(name, root) / count if count else 0.0

    def write(self, path: str, meta: Dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        document = {
            "meta": meta,
            "operations": self.operations,
            "spans_recorded": self._next_id,
            "totals": [
                {"root": root, "name": name, "count": int(total[0]),
                 "total_s": total[1], "self_s": total[2]}
                for (root, name), total in sorted(self.totals.items())
            ],
            "spans": [
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op}
                for span_id, name, start, end, parent, op in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
