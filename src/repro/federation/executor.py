"""Federated execution: bind joins over planned patterns.

The executor only produces matches: a breadth-first bind join over the
plan's steps, each remote call under retry, breaker, result cache and
degradation handling. The plan's filters, solution modifiers and aggregates
then run through :func:`~repro.sparql.pipeline.finish_solutions`, so a
federated answer is exactly the centralised answer over the matches.

Fault tolerance (experiment E17): when endpoints are chaos-injected, every
remote call runs under a shared :class:`~repro.faults.RetryPolicy`; an
endpoint whose calls permanently fail (dead) is dropped from the rest of the
query and the executor *degrades gracefully* — it returns the results
obtainable from the surviving endpoints, flags the answer
``complete=False``, and reports per-endpoint failure counts, instead of
raising mid-join. A call that fails *transiently* even after retries (a
timeout, an exhausted retry budget over retryable errors) only counts in
``endpoint_failures`` — the endpoint stays in play for later patterns.

Overload resilience (experiment E18): the executor optionally takes the
whole :mod:`repro.resilience` kit — a per-query
:class:`~repro.resilience.Deadline` (checked before every remote call, so
one slow endpoint cannot consume the query's whole budget), a
:class:`~repro.resilience.CircuitBreakerSet` keyed by endpoint name (an
open breaker fails the call fast with
:class:`~repro.errors.CircuitOpen` instead of hammering a flapping
endpoint), and an :class:`~repro.resilience.AdmissionController` guarding
query entry (shed queries raise the retryable
:class:`~repro.errors.Overloaded` before any remote work starts). All
three default to None, leaving the pre-E18 path byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union, TYPE_CHECKING

from repro.cache.lru import MISS
from repro.errors import CircuitOpen, FaultError, FederationError, RetryExhausted
from repro.faults.retry import RetryPolicy, RetryState
from repro.federation.endpoint import Endpoint
from repro.obs import Observability, resolve
from repro.federation.planner import FederatedPlan, plan_query
from repro.sparql.ast import SelectQuery, TriplePattern, Variable
from repro.sparql.evaluator import Bindings, FunctionRegistry, _substitute
from repro.sparql.pipeline import finish_solutions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.federation import FederationResultCache
    from repro.resilience import AdmissionController, CircuitBreakerSet, Deadline

_EMPTY_REGISTRY = FunctionRegistry()


@dataclass
class FederationMetrics:
    """What E8 reports per query (plus E17/E18's fault accounting)."""

    requests: int = 0
    bindings_shipped: int = 0
    results: int = 0
    #: False when at least one endpoint was lost and the answer is partial.
    complete: bool = True
    #: Endpoint name -> calls that failed terminally (after retries).
    endpoint_failures: Dict[str, int] = field(default_factory=dict)
    #: Transient failures that a retry recovered.
    retries: int = 0
    #: Terminal-but-transient failures (timeouts, exhausted retries over
    #: retryable errors, open breakers) — the endpoint was *not* lost.
    transient_failures: int = 0
    #: Sub-queries answered from the result cache (no remote call, no
    #: deadline charge). Zero whenever no cache is configured.
    cache_hits: int = 0


def _is_permanent(error: BaseException) -> bool:
    """Did this terminal failure prove the endpoint unrecoverable?

    A :class:`RetryExhausted` wrapper is judged by the error it gave up on:
    exhausting retries over *transient* faults (errors, timeouts) says the
    endpoint was unlucky, not dead. Only a non-retryable underlying fault
    (e.g. ``EndpointDown``) condemns the endpoint for the rest of the query.
    """
    if isinstance(error, RetryExhausted):
        last = error.last_error
        return last is not None and _is_permanent(last)
    return not getattr(error, "retryable", False)


def execute_federated(
    query: Union[str, SelectQuery, FederatedPlan],
    endpoints: Sequence[Endpoint],
    source_selection: str = "statistics",
    registry: FunctionRegistry = _EMPTY_REGISTRY,
    retry_policy: Optional[RetryPolicy] = None,
    graceful: bool = True,
    obs: Optional[Observability] = None,
    deadline: Optional["Deadline"] = None,
    breakers: Optional["CircuitBreakerSet"] = None,
    admission: Optional["AdmissionController"] = None,
    priority: int = 1,
    result_cache: Optional["FederationResultCache"] = None,
) -> tuple:
    """Execute a federated query; returns (solutions, metrics).

    Evaluation is an index-style bind join: each solution so far is
    substituted into the next pattern before it is sent to that pattern's
    sources, so upstream selectivity cuts remote work.

    ``retry_policy`` wraps each remote call (transient endpoint faults are
    retried); with ``graceful`` set, a permanently failing endpoint yields a
    partial answer (``metrics.complete`` False) instead of an exception.
    Transient terminal failures (timeouts, exhausted retries over retryable
    errors) count in ``metrics.endpoint_failures`` but do *not* drop the
    endpoint — only proof of permanent death does.

    Resilience (all optional): ``deadline`` is the query's end-to-end time
    budget — checked before every remote call and handed to the retry loop,
    expiry raises :class:`~repro.errors.TimeoutExceeded` even under
    ``graceful`` (a deadline miss is the *caller's* failure condition, not a
    degradable data-source loss). ``breakers`` supplies one circuit breaker
    per endpoint; ``admission`` guards query entry and may raise
    :class:`~repro.errors.Overloaded` with the given ``priority`` class.

    With an ``obs`` bundle attached, every remote call runs inside a
    ``federation.fetch`` span labelled by endpoint, terminal failures and
    lost endpoints surface as ``federation.*`` counters, and the whole
    query is one ``federation.query`` span.

    ``result_cache`` (a :class:`~repro.cache.FederationResultCache`,
    experiment E19) answers repeated (endpoint, sub-query) pairs locally: a
    hit skips the remote call entirely — no request accounting, no retry,
    no deadline charge. The executor bumps the endpoint's cache epoch
    whenever its circuit breaker changes state or the endpoint is marked
    dead, so answers cached before an incident are never served after it.
    """
    ticket = admission.admit(priority=priority) if admission is not None else None
    try:
        return _execute_admitted(
            query, endpoints, source_selection, registry, retry_policy,
            graceful, obs, deadline, breakers, result_cache,
        )
    finally:
        if ticket is not None:
            ticket.release()


def _execute_admitted(
    query,
    endpoints: Sequence[Endpoint],
    source_selection: str,
    registry: FunctionRegistry,
    retry_policy: Optional[RetryPolicy],
    graceful: bool,
    obs: Optional[Observability],
    deadline: Optional["Deadline"],
    breakers: Optional["CircuitBreakerSet"],
    result_cache: Optional["FederationResultCache"] = None,
) -> tuple:
    observability = resolve(obs)
    for endpoint in endpoints:
        endpoint.reset_accounting()
    if isinstance(query, FederatedPlan):
        plan = query
    else:
        plan = plan_query(query, endpoints, source_selection=source_selection)

    dead: Set[str] = set()
    endpoint_failures: Dict[str, int] = {}
    retry_total = 0
    transient_failures = 0
    cache_hit_total = 0

    def remote_call(endpoint: Endpoint, pattern: TriplePattern) -> list:
        """One attempt, gated by the endpoint's breaker when one exists."""
        if breakers is None:
            return endpoint.match(pattern, deadline=deadline)
        breaker = breakers.for_key(endpoint.name)
        state_before = breaker.state
        try:
            breaker.before_call()
            try:
                result = endpoint.match(pattern, deadline=deadline)
            except FaultError:
                breaker.record_failure()
                raise
            breaker.record_success()
            return result
        finally:
            if result_cache is not None and breaker.state != state_before:
                # Any breaker transition (trip, probe window, close) is
                # endpoint "weather": answers cached before it are suspect.
                result_cache.bump_epoch(endpoint.name)

    def fetch(endpoint: Endpoint, pattern: TriplePattern) -> Optional[list]:
        """One remote call with retry + degradation; None = no data."""
        nonlocal retry_total, transient_failures, cache_hit_total
        if endpoint.name in dead:
            return None
        if result_cache is not None:
            cached = result_cache.get(endpoint.name, pattern)
            if cached is not MISS:
                # Served locally: no remote call, no retry, and — the point
                # of the tier — nothing charged to the request deadline.
                cache_hit_total += 1
                observability.metrics.counter(
                    "federation.cache_hits", endpoint=endpoint.name
                ).inc()
                return cached
        if deadline is not None:
            # The query's budget is gone: stop issuing remote work. This
            # propagates even under graceful degradation — a deadline miss
            # is a request failure, not a data-source loss.
            deadline.check("federation.fetch")
        state = RetryState()
        with observability.tracer.span(
            "federation.fetch", endpoint=endpoint.name
        ) as span:
            try:
                if retry_policy is not None:
                    result = retry_policy.call(
                        lambda: remote_call(endpoint, pattern),
                        state=state,
                        obs=obs,
                        deadline=deadline,
                    )
                else:
                    result = remote_call(endpoint, pattern)
                if result_cache is not None:
                    result_cache.put(endpoint.name, pattern, result)
                return result
            except FaultError as error:
                span.status = "failed"
                endpoint_failures[endpoint.name] = (
                    endpoint_failures.get(endpoint.name, 0) + 1
                )
                observability.metrics.counter(
                    "federation.endpoint_failures", endpoint=endpoint.name
                ).inc()
                if not graceful:
                    raise
                if _is_permanent(error):
                    dead.add(endpoint.name)
                    if result_cache is not None:
                        result_cache.bump_epoch(endpoint.name)
                    observability.metrics.counter(
                        "federation.endpoints_lost", endpoint=endpoint.name
                    ).inc()
                else:
                    if deadline is not None and deadline.expired:
                        # Out of time mid-retry: a deadline miss fails the
                        # whole query, graceful or not.
                        raise
                    transient_failures += 1
                    observability.metrics.counter(
                        "federation.transient_failures",
                        endpoint=endpoint.name,
                    ).inc()
                return None
            finally:
                retry_total += state.retries

    with observability.tracer.span("federation.query"):
        solutions: List[Bindings] = [{}]
        for step in plan.steps:
            next_solutions: List[Bindings] = []
            for solution in solutions:
                concrete = _substitute(step.pattern, solution)
                for endpoint in step.sources:
                    triples = fetch(endpoint, concrete)
                    if triples is None:
                        continue
                    for triple in triples:
                        extended = _extend(solution, concrete, triple)
                        if extended is not None:
                            next_solutions.append(extended)
            solutions = next_solutions
            if not solutions:
                break

    solutions = finish_solutions(
        plan.query, [solutions], plan.filters, registry
    )

    metrics = FederationMetrics(
        requests=sum(e.requests for e in endpoints),
        bindings_shipped=sum(e.bindings_shipped for e in endpoints),
        results=len(solutions),
        complete=not dead,
        endpoint_failures=endpoint_failures,
        retries=retry_total,
        transient_failures=transient_failures,
        cache_hits=cache_hit_total,
    )
    counters = observability.metrics
    counters.counter("federation.queries").inc()
    counters.counter("federation.requests").inc(metrics.requests)
    counters.counter("federation.bindings_shipped").inc(metrics.bindings_shipped)
    counters.counter("federation.results").inc(metrics.results)
    if dead:
        counters.counter("federation.degraded_queries").inc()
    return solutions, metrics


def _extend(bindings: Bindings, pattern: TriplePattern, triple) -> Optional[Bindings]:
    extended = dict(bindings)
    for position, term in zip(
        (pattern.subject, pattern.predicate, pattern.object), triple
    ):
        if isinstance(position, Variable):
            existing = extended.get(position)
            if existing is None:
                extended[position] = term
            elif existing != term:
                return None
    return extended
