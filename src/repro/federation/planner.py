"""Federated query planning: decomposition and join ordering."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Union

from repro.errors import FederationError
from repro.federation.endpoint import Endpoint
from repro.federation.sourcesel import select_sources
from repro.sparql.ast import Expression, SelectQuery, TriplePattern, Variable
from repro.sparql.parser import parse_query
from repro.sparql.pipeline import flat_bgp


@dataclass
class PlannedPattern:
    """One triple pattern with its sources and cost estimate."""

    pattern: TriplePattern
    sources: List[Endpoint]
    estimated_cardinality: int


@dataclass
class FederatedPlan:
    """An ordered pattern list, the filters applied after its joins, and the
    query whose modifiers finish the answer."""

    steps: List[PlannedPattern]
    filters: List[Expression]
    query: SelectQuery

    @property
    def total_sources(self) -> int:
        return sum(len(step.sources) for step in self.steps)


def _extract_bgp(query: SelectQuery) -> tuple:
    """Pull the flat BGP + filters out of a (simple) federated query."""
    return flat_bgp(query, FederationError)


def plan_query(
    query: Union[str, SelectQuery],
    endpoints: Sequence[Endpoint],
    source_selection: str = "statistics",
) -> FederatedPlan:
    """Plan a federated query: select sources, order patterns by cost.

    Ordering is greedy: cheapest estimated cardinality first, preferring
    patterns that share a variable with already-planned ones (so bind joins
    stay selective).
    """
    if isinstance(query, str):
        query = parse_query(query)
    if not isinstance(query, SelectQuery):
        raise FederationError("only SELECT queries are supported in federation")
    patterns, filters = _extract_bgp(query)
    sources = select_sources(patterns, endpoints, method=source_selection)

    planned = [
        PlannedPattern(
            pattern=pattern,
            sources=sources[i],
            estimated_cardinality=sum(
                e.estimated_cardinality(pattern) for e in sources[i]
            ),
        )
        for i, pattern in enumerate(patterns)
    ]

    ordered: List[PlannedPattern] = []
    bound: Set[Variable] = set()
    remaining = list(planned)
    while remaining:
        def sort_key(step: PlannedPattern):
            connected = any(v in bound for v in step.pattern.variables())
            return (
                0 if connected or not bound else 1,
                step.estimated_cardinality,
            )

        best = min(remaining, key=sort_key)
        remaining.remove(best)
        ordered.append(best)
        bound.update(best.pattern.variables())

    return FederatedPlan(steps=ordered, filters=filters, query=query)
