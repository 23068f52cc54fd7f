"""Fault-tolerant distributed SPARQL execution (experiment E25).

The third execution engine, entered through its runtime —
``DistRuntime(graph, ...).query(text)`` runs the shared pipeline
(:mod:`repro.sparql.pipeline`) with the runtime's own engine row: the E22
vector plans, compiled unchanged, are mapped onto a range-partitioned +
replicated layout of the graph's id-row table, keyed on subject id
(:mod:`repro.sparql.dist.partition`), planned into trees of :class:`Stage`
joined by :class:`Exchange` edges (:mod:`repro.sparql.dist.plan` —
subject-aligned stages fuse co-located joins, FILTER/BIND and ``gather``
inputs into one task per partition; inputs that are not aligned reach a
join by ``split`` + ``gather`` under a :meth:`Graph.count`-driven cost
threshold, or by ``shuffle`` on definitely-bound keys), and executed as
:mod:`repro.cluster.scheduler` tasks under crash recovery, speculation,
blacklisting, replica failover and idempotent output commit
(:mod:`repro.sparql.dist.engine`).

Robustness contract: identical solution multisets to the single-process
engines, or a *typed* failure — retryable
:class:`~repro.errors.PartitionUnavailable` when a partition loses every
replica (shed at the serving gateway), or an explicitly flagged
:class:`PartialResult` when the caller opted in with ``allow_partial=True``.
Budgeted queries (E23) propagate their deadline/caps into every task and a
budget kill cancels the whole DAG with admission tickets released exactly
once. ``python -m repro.soaks.dist`` measures shard-count scaling,
locality, and chaos recovery overhead into ``BENCH_E25.json``.
"""

from repro.sparql.dist.engine import (
    DistReport,
    DistRuntime,
    PartialResult,
    ShuffleStore,
    bucket_codes,
)
from repro.sparql.dist.partition import (
    BYTES_PER_ROW,
    PartitionedTripleStore,
    RangePartitioner,
)
from repro.sparql.dist.plan import (
    Exchange,
    Stage,
    build_plan,
    definitely_bound,
    estimate_rows,
    plan_shape,
)

__all__ = [
    "BYTES_PER_ROW",
    "DistReport",
    "DistRuntime",
    "Exchange",
    "PartialResult",
    "PartitionedTripleStore",
    "RangePartitioner",
    "ShuffleStore",
    "Stage",
    "bucket_codes",
    "build_plan",
    "definitely_bound",
    "estimate_rows",
    "plan_shape",
]
