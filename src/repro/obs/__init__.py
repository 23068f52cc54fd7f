"""Unified observability: metrics + tracing + JSON snapshots.

The paper's platform claims (1M metadata ops/s, allreduce-vs-PS scaling,
locality-aware scheduling) are *measured* claims; this package is how the
stack measures itself. One :class:`Observability` bundle carries

* a :class:`~repro.obs.metrics.MetricsRegistry` — labelled counters,
  gauges and histograms;
* a :class:`~repro.obs.tracing.Tracer` — hierarchical :class:`Span`
  timing, driven by the sim-clock where one exists (the scheduler binds
  an unclaimed tracer to its simulation) and wall-clock elsewhere;
* the ``BENCH_*.json`` snapshot format (:mod:`repro.obs.export`) the
  benchmarks emit.

Instrumented subsystems (``Scheduler``, ``ShardedKVStore``, ``HopsFS``,
``execute_federated``, ``RetryPolicy``, the SPARQL evaluator,
``DataParallelTrainer``, and the E20 durability layer — ``durability.*``
counters for WAL appends, recoveries, detected/served corrupt reads,
scrub repairs and fsck runs) all take an optional ``obs`` argument defaulting
to the module-level :data:`NOOP` — mirroring the ``repro.faults`` pattern:
with observability disabled every instrument call hits a shared null
object, runs are byte-identical to uninstrumented code, and the overhead
is a dict-free method call.

Typical use::

    from repro.obs import Observability
    obs = Observability()
    store = ShardedKVStore(shard_count=8, obs=obs)
    ... run workload ...
    obs.write_snapshot("BENCH_E01.json", meta={"experiment": "E1"})
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs.export import (
    SCHEMA,
    bench_snapshot_path,
    read_snapshot,
    snapshot_document,
    validate_snapshot,
    write_bench_snapshot,
    write_snapshot,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.tracing import NULL_TRACER, NullTracer, Span, Tracer


class Observability:
    """The enabled bundle: one registry + one tracer, snapshot helpers."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_spans: int = 2000):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=clock, max_spans=max_spans)

    def clock(self) -> Callable[[], float]:
        """The tracer's resolved time source (for non-span timing code)."""
        return self.tracer.now

    def snapshot(self, meta: Optional[Dict] = None) -> Dict:
        return snapshot_document(self, meta)

    def write_snapshot(self, path: str, meta: Optional[Dict] = None) -> str:
        return write_snapshot(path, self, meta)


class _NoopObservability(Observability):
    """The module-level disabled default; a singleton shared by everyone."""

    enabled = False

    def __init__(self):
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_TRACER


#: The disabled default every instrumented subsystem falls back to.
NOOP = _NoopObservability()


def resolve(obs: Optional[Observability]) -> Observability:
    """``obs`` if given, else the shared no-op bundle."""
    return obs if obs is not None else NOOP


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "SCHEMA",
    "Span",
    "Tracer",
    "bench_snapshot_path",
    "read_snapshot",
    "resolve",
    "snapshot_document",
    "validate_snapshot",
    "write_bench_snapshot",
    "write_snapshot",
]
