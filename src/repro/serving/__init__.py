"""The multi-tenant serving gateway (experiment E21).

The paper's platform is a front door for "millions of users" hitting a
Copernicus-scale catalogue; this package is that front door, scaled down
to a deterministic model. One :class:`Gateway` sits in front of the
catalogue, the SPARQL store and the federation executor and gives a shared
platform its multi-tenant manners:

* **identity and quotas** (:mod:`repro.serving.tenant`) — API-key
  authentication, deterministic token-bucket rate quotas and per-tenant
  in-flight caps, rejecting excess with typed
  :class:`~repro.errors.QuotaExceeded` + exact retry-after hints;
* **weighted-fair queueing** (:mod:`repro.serving.wfq`) — virtual-time
  fair scheduling across tenants, so one bursty tenant queues behind its
  own backlog instead of starving everyone;
* **request coalescing** (:mod:`repro.serving.coalesce`) — concurrent
  identical queries (same backend, text, options, content version) share
  one execution, each member keeping its *own* deadline;
* **graceful degradation** — internal E18 signals
  (:class:`~repro.errors.Overloaded`, :class:`~repro.errors.CircuitOpen`)
  and the E23 governor's :class:`~repro.errors.QueryBudgetExceeded` /
  :class:`~repro.errors.QueryCancelled` are translated into per-tenant
  :class:`~repro.errors.Shed`, never leaked raw;
* **query governance** (E23) — with a
  :class:`~repro.sparql.governor.BudgetPolicy` attached, each execution
  carries a :class:`~repro.sparql.governor.QueryBudget` (deadline narrowed
  to the per-query cap, row/byte ceilings, the coalesce entry's cancel
  token) that the engines enforce at their checkpoints, and
  :meth:`Gateway.kill` stops a runaway mid-flight.

The gateway composes with — never duplicates — the earlier layers: E18's
:class:`~repro.resilience.AdmissionController` is its shared bulkhead,
E18's :class:`~repro.resilience.Deadline` bounds every member
individually, and the coalescing key reuses the
:attr:`~repro.rdf.graph.Graph.version` counter E19's
:class:`~repro.cache.PlanCache` invalidates on. With every knob at its
default the gateway is byte-identical to direct backend access (pinned by
the parity suite), matching the E17–E20 disabled-path convention.

:mod:`repro.serving.workload` generates seeded open-loop traffic (Zipf
tenant skew, diurnal swell, flash bursts); the E21 soak,
:mod:`repro.soaks.serving`, plays it protected-vs-unprotected on the sim
clock (``python -m repro.soaks.serving``), and benchmark E21 measures
tenant fairness (Jain's index), p99 and duplicate executions avoided.
"""

from repro.errors import AuthFailed, QuotaExceeded, ServingError, Shed
from repro.serving.backends import (
    Backend,
    CallableBackend,
    CatalogBackend,
    DistBackend,
    FederationBackend,
    StoreBackend,
)
from repro.serving.coalesce import CoalesceEntry, Coalescer
from repro.serving.gateway import Gateway, GatewayRequest
from repro.serving.tenant import (
    TenantConfig,
    TenantRegistry,
    TenantSession,
    TokenBucket,
)
from repro.serving.wfq import WeightedFairQueue
from repro.serving.workload import (
    Arrival,
    WorkloadConfig,
    burst_windows,
    generate_arrivals,
    rate_at,
    zipf_weights,
)

__all__ = [
    "Arrival",
    "AuthFailed",
    "Backend",
    "CallableBackend",
    "CatalogBackend",
    "DistBackend",
    "CoalesceEntry",
    "Coalescer",
    "FederationBackend",
    "Gateway",
    "GatewayRequest",
    "QuotaExceeded",
    "ServingError",
    "Shed",
    "StoreBackend",
    "TenantConfig",
    "TenantRegistry",
    "TenantSession",
    "TokenBucket",
    "WeightedFairQueue",
    "WorkloadConfig",
    "burst_windows",
    "generate_arrivals",
    "rate_at",
    "zipf_weights",
]
