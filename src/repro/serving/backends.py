"""Backend adapters: the real query engines behind the gateway.

Each adapter maps the gateway's uniform ``execute(query, options,
deadline, priority)`` call onto one engine's own entry point, and exposes
the engine's **content version** for the coalescing key — the same
monotonic :attr:`~repro.rdf.graph.Graph.version` counter E19's
:class:`~repro.cache.PlanCache` keys compiled plans on, so coalescing and
plan caching invalidate on exactly the same mutations.

The adapters add nothing else on the call path — no extra arguments, no
result reshaping — which is what makes the disabled-path parity suite's
claim (`gateway with defaults == direct access`, byte for byte) hold.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.federation.executor import execute_federated
from repro.resilience.deadline import Deadline
from repro.serving.gateway import Backend


class StoreBackend(Backend):
    """Raw (Geo)SPARQL over a :class:`~repro.geosparql.store.GeoStore`.

    The store's own entry point takes no deadline — the gateway enforces
    the request's budget at dispatch and fan-out instead — so the executed
    call is exactly ``store.query(text, options, budget=budget)``. An E23
    :class:`~repro.sparql.governor.QueryBudget` is execution state: it goes
    beside the compile options, never into them, so plan-cache and
    coalescing keys cannot see it.
    """

    kind = "sparql"
    supports_budget = True

    def __init__(self, store):
        self.store = store

    def version(self) -> int:
        return self.store.content_version

    def execute(self, query: str, options=None,
                deadline: Optional[Deadline] = None, priority: int = 1,
                budget=None):
        return self.store.query(query, options=options, budget=budget)


class DistBackend(Backend):
    """Distributed SPARQL (E25) over a shared :class:`DistRuntime`.

    Every request goes through :meth:`DistRuntime.query` on the one runtime,
    so tenants share one partitioned store and one fault-injection campaign.
    A partition losing every replica surfaces as
    :class:`~repro.errors.PartitionUnavailable`, which the gateway
    translates to a retryable per-tenant :class:`~repro.errors.Shed`.
    """

    kind = "sparql"
    supports_budget = True

    def __init__(self, graph, runtime, registry=None):
        self.graph = graph
        self.runtime = runtime
        self.registry = registry

    def version(self) -> int:
        return self.graph.version

    def execute(self, query: str, options=None,
                deadline: Optional[Deadline] = None, priority: int = 1,
                budget=None):
        return self.runtime.query(
            query, self.registry, options, budget=budget
        )


class CatalogBackend(Backend):
    """The :class:`~repro.catalog.SemanticCatalog` knowledge-query path.

    The catalogue already understands deadlines and admission priorities
    (E18), so both are passed straight through.
    """

    kind = "catalog"

    def __init__(self, catalog):
        self.catalog = catalog

    def version(self) -> int:
        return self.catalog.store.content_version

    def execute(self, query: str, options=None,
                deadline: Optional[Deadline] = None, priority: int = 1):
        return self.catalog.query(query, deadline=deadline, priority=priority)


class FederationBackend(Backend):
    """Federated execution over a fixed endpoint set.

    The coalescing version is the tuple of every member graph's version,
    so a mutation at *any* endpoint moves the key. Executor options
    (retry policy, breakers, result cache, ...) are bound at construction
    — they are platform wiring, not tenant-visible request state.
    """

    kind = "federation"

    def __init__(self, endpoints: Sequence, **executor_options):
        self.endpoints = list(endpoints)
        self.executor_options = dict(executor_options)

    def version(self):
        return tuple(
            (endpoint.name, endpoint.graph.version)
            for endpoint in self.endpoints
        )

    def execute(self, query: str, options=None,
                deadline: Optional[Deadline] = None, priority: int = 1):
        return execute_federated(
            query,
            self.endpoints,
            deadline=deadline,
            priority=priority,
            **self.executor_options,
        )


class CallableBackend(Backend):
    """Adapt any ``f(query) -> result`` (tests, synthetic soak stores)."""

    def __init__(self, fn, kind: str = "default", version_fn=None):
        self.fn = fn
        self.kind = kind
        self._version_fn = version_fn

    def version(self):
        return self._version_fn() if self._version_fn is not None else 0

    def execute(self, query: str, options=None,
                deadline: Optional[Deadline] = None, priority: int = 1):
        return self.fn(query)
