"""Hierarchical timing: spans and the tracer that collects them.

A :class:`Span` is one timed region with a name and labels. Spans come in
two flavours:

* ``with tracer.span("name", key=value):`` — lexically scoped; nesting
  follows the ``with`` stack, so the span records its parent.
* ``span = tracer.start_span(...)`` / ``span.end()`` — detached; for
  event-driven code (the discrete-event scheduler) where a region opens
  in one callback and closes in another.

Time comes from the tracer's ``clock`` callable. Simulated subsystems bind
it to their sim-clock (``lambda: simulation.now``) so spans measure
*simulated* seconds; everything else defaults to ``time.perf_counter``.
A tracer whose clock is unset is claimed by the first simulated subsystem
that receives it (see ``Scheduler``), which is how "sim-clock where one
exists, wall-clock elsewhere" is decided.

Aggregates (count/total/min/max per span name) are always kept; individual
span records are retained up to ``max_spans`` so snapshots stay bounded on
million-event runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ObsError

Clock = Callable[[], float]


class Span:
    """One timed region; ``end()`` is idempotent."""

    __slots__ = ("name", "labels", "parent_name", "start_s", "end_s",
                 "status", "_tracer")

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        start_s: float,
        tracer: Optional["Tracer"],
        parent_name: Optional[str] = None,
    ):
        self.name = name
        self.labels = labels
        self.parent_name = parent_name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.status = "ok"
        self._tracer = tracer

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise ObsError(f"span {self.name!r} has not ended")
        return self.end_s - self.start_s

    def end(self, status: Optional[str] = None) -> None:
        if self.end_s is not None:
            return
        if status is not None:
            self.status = status
        tracer = self._tracer
        if tracer is not None:
            self.end_s = tracer.now()
            tracer._record(self)

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "parent": self.parent_name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s if self.finished else None,
            "status": self.status,
        }


class Tracer:
    """Collects spans; one per :class:`~repro.obs.Observability` bundle."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None, max_spans: int = 2000):
        if max_spans < 0:
            raise ObsError("max_spans must be non-negative")
        self.clock = clock
        self.max_spans = max_spans
        self._finished: List[Span] = []
        self._dropped = 0
        self._aggregates: Dict[str, List[float]] = {}  # name -> [n, sum, min, max]
        self._stack: List[Span] = []

    def now(self) -> float:
        return self.clock() if self.clock is not None else time.perf_counter()

    def start_span(self, name: str, **labels: object) -> Span:
        """A detached span: the caller ends it explicitly."""
        return Span(
            name,
            {str(k): str(v) for k, v in labels.items()},
            self.now(),
            self,
            parent_name=self._stack[-1].name if self._stack else None,
        )

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[Span]:
        """A lexically scoped span; exceptions mark its status ``error``."""
        opened = self.start_span(name, **labels)
        self._stack.append(opened)
        try:
            yield opened
        except BaseException:
            opened.status = "error"
            raise
        finally:
            self._stack.pop()
            opened.end()

    def _record(self, span: Span) -> None:
        aggregate = self._aggregates.get(span.name)
        duration = span.duration_s
        if aggregate is None:
            self._aggregates[span.name] = [1, duration, duration, duration]
        else:
            aggregate[0] += 1
            aggregate[1] += duration
            aggregate[2] = min(aggregate[2], duration)
            aggregate[3] = max(aggregate[3], duration)
        if len(self._finished) < self.max_spans:
            self._finished.append(span)
        else:
            self._dropped += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def finished_spans(self) -> List[Span]:
        return list(self._finished)

    def total_s(self, name: str) -> float:
        """Total recorded duration across spans with this name."""
        aggregate = self._aggregates.get(name)
        return aggregate[1] if aggregate else 0.0

    def span_count(self, name: Optional[str] = None) -> int:
        if name is None:
            return sum(int(a[0]) for a in self._aggregates.values())
        aggregate = self._aggregates.get(name)
        return int(aggregate[0]) if aggregate else 0

    def snapshot(self) -> Dict:
        return {
            "aggregates": [
                {
                    "name": name,
                    "count": int(values[0]),
                    "total_s": values[1],
                    "min_s": values[2],
                    "max_s": values[3],
                }
                for name, values in sorted(self._aggregates.items())
            ],
            "spans": [s.as_dict() for s in self._finished],
            "dropped": self._dropped,
        }


# ---------------------------------------------------------------------------
# Disabled path
# ---------------------------------------------------------------------------

class _NullSpan(Span):
    """The one shared disabled span; also its own ``with`` context, so a
    disabled ``tracer.span(...)`` allocates nothing per call."""

    __slots__ = ()

    def end(self, status: Optional[str] = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan("null", {}, 0.0, None)


class NullTracer(Tracer):
    """No-op tracer: never reads the clock, never retains anything."""

    enabled = False

    def span(self, name: str, **labels: object) -> Span:
        return _NULL_SPAN

    def start_span(self, name: str, **labels: object) -> Span:
        return _NULL_SPAN


NULL_TRACER = NullTracer()
