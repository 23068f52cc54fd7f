"""Federation tests: source selection, planning, bind-join execution."""

import pytest

from repro.errors import FederationError
from repro.federation import (
    Endpoint,
    execute_federated,
    plan_query,
    select_sources,
)
from repro.rdf import Graph, IRI, Literal, Namespace
from repro.sparql import Variable
from repro.sparql.ast import TriplePattern
from repro.sparql.parser import parse_query

EX = Namespace("http://ex.org/")
PREFIX = "PREFIX ex: <http://ex.org/> "


@pytest.fixture
def endpoints():
    """Three endpoints with disjoint predicate vocabularies plus one shared."""
    crops = Graph("crops")
    for i in range(5):
        crops.add(EX[f"field{i}"], EX.crop, Literal("wheat" if i % 2 else "maize"))
        crops.add(EX[f"field{i}"], EX.label, Literal(f"field {i}"))

    weather = Graph("weather")
    for i in range(5):
        weather.add(EX[f"field{i}"], EX.rainfall, Literal.from_python(100 + i * 10))

    ice = Graph("ice")
    for i in range(3):
        ice.add(EX[f"floe{i}"], EX.iceType, Literal("old"))
        ice.add(EX[f"floe{i}"], EX.label, Literal(f"floe {i}"))

    return [Endpoint("crops", crops), Endpoint("weather", weather), Endpoint("ice", ice)]


def bgp(query_text):
    query = parse_query(query_text)
    from repro.federation.planner import _extract_bgp

    return _extract_bgp(query)[0]


class TestSourceSelection:
    def test_statistics_prunes_by_predicate(self, endpoints):
        patterns = bgp(PREFIX + "SELECT ?f WHERE { ?f ex:crop ?c . ?f ex:rainfall ?r }")
        selected = select_sources(patterns, endpoints, method="statistics")
        assert [e.name for e in selected[0]] == ["crops"]
        assert [e.name for e in selected[1]] == ["weather"]
        assert all(e.requests == 0 for e in endpoints)

    def test_statistics_shared_predicate(self, endpoints):
        patterns = bgp(PREFIX + "SELECT ?x WHERE { ?x ex:label ?l }")
        selected = select_sources(patterns, endpoints, method="statistics")
        assert {e.name for e in selected[0]} == {"crops", "ice"}

    def test_variable_predicate_selects_all(self, endpoints):
        patterns = bgp(PREFIX + "SELECT ?x WHERE { ?x ?p ?o }")
        selected = select_sources(patterns, endpoints, method="statistics")
        assert len(selected[0]) == 3

    def test_ask_probing_costs_requests(self, endpoints):
        patterns = bgp(PREFIX + "SELECT ?f WHERE { ?f ex:crop ?c }")
        selected = select_sources(patterns, endpoints, method="ask")
        assert [e.name for e in selected[0]] == ["crops"]
        assert sum(e.requests for e in endpoints) == 3

    def test_none_is_broadcast(self, endpoints):
        patterns = bgp(PREFIX + "SELECT ?f WHERE { ?f ex:crop ?c }")
        selected = select_sources(patterns, endpoints, method="none")
        assert len(selected[0]) == 3

    def test_validation(self, endpoints):
        with pytest.raises(FederationError):
            select_sources([], endpoints, method="oracle")
        with pytest.raises(FederationError):
            select_sources([], [], method="statistics")


class TestPlanner:
    def test_plan_orders_selective_first(self, endpoints):
        # ex:iceType has 3 triples; ex:label has 8 -> iceType first.
        plan = plan_query(
            PREFIX + "SELECT ?x WHERE { ?x ex:label ?l . ?x ex:iceType ?t }",
            endpoints,
        )
        assert str(plan.steps[0].pattern.predicate).endswith("iceType")

    def test_plan_prefers_connected_patterns(self, endpoints):
        plan = plan_query(
            PREFIX
            + "SELECT ?f ?r WHERE { ?f ex:crop ?c . ?f ex:rainfall ?r . ?x ex:iceType ?t }",
            endpoints,
        )
        # iceType (3 triples) is cheapest and starts; the crop/rainfall pair
        # must then run back to back (connected via ?f), never interleaved
        # by cost alone.
        assert str(plan.steps[0].pattern.predicate).endswith("iceType")
        second_vars = set(plan.steps[1].pattern.variables())
        third_vars = set(plan.steps[2].pattern.variables())
        assert Variable("f") in second_vars & third_vars

    def test_filters_extracted(self, endpoints):
        plan = plan_query(
            PREFIX + "SELECT ?f WHERE { ?f ex:rainfall ?r . FILTER (?r > 110) }",
            endpoints,
        )
        assert len(plan.filters) == 1

    def test_unsupported_shapes_rejected(self, endpoints):
        with pytest.raises(FederationError):
            plan_query(
                PREFIX + "SELECT ?f WHERE { OPTIONAL { ?f ex:crop ?c } }", endpoints
            )
        with pytest.raises(FederationError):
            plan_query(PREFIX + "ASK { ?f ex:crop ?c }", endpoints)

    def test_total_sources(self, endpoints):
        plan = plan_query(
            PREFIX + "SELECT ?f WHERE { ?f ex:crop ?c . ?f ex:rainfall ?r }",
            endpoints,
        )
        assert plan.total_sources == 2


class TestExecution:
    def test_cross_endpoint_join(self, endpoints):
        solutions, metrics = execute_federated(
            PREFIX
            + "SELECT ?f ?c ?r WHERE { ?f ex:crop ?c . ?f ex:rainfall ?r }",
            endpoints,
        )
        assert len(solutions) == 5
        by_field = {s[Variable("f")]: s for s in solutions}
        assert by_field[EX.field2][Variable("r")] == Literal.from_python(120)
        assert metrics.results == 5

    def test_filter_applied(self, endpoints):
        solutions, _ = execute_federated(
            PREFIX
            + "SELECT ?f WHERE { ?f ex:rainfall ?r . FILTER (?r >= 130) }",
            endpoints,
        )
        assert {s[Variable("f")] for s in solutions} == {EX.field3, EX.field4}

    def test_matches_centralised_answer(self, endpoints):
        """Federated result == union graph evaluated centrally."""
        from repro.sparql import evaluate

        union = Graph()
        for endpoint in endpoints:
            union.add_all(iter(endpoint.graph))
        query = (
            PREFIX
            + "SELECT ?f ?c ?r WHERE { ?f ex:crop ?c . ?f ex:rainfall ?r . "
            "FILTER (?r < 140) }"
        )
        central = evaluate(union, query)
        federated, _ = execute_federated(query, endpoints)
        canonical = lambda sols: sorted(
            sorted((v.name, repr(t)) for v, t in s.items()) for s in sols
        )
        assert canonical(federated) == canonical(central)

    def test_source_selection_reduces_requests(self, endpoints):
        query = (
            PREFIX + "SELECT ?f ?c ?r WHERE { ?f ex:crop ?c . ?f ex:rainfall ?r }"
        )
        _, selected = execute_federated(query, endpoints, source_selection="statistics")
        _, broadcast = execute_federated(query, endpoints, source_selection="none")
        assert selected.requests < broadcast.requests
        assert selected.bindings_shipped <= broadcast.bindings_shipped

    def test_bind_join_selectivity(self, endpoints):
        # Bound subject in the second pattern: each remote match call carries
        # the binding, so the weather endpoint ships only matching rows.
        query = (
            PREFIX
            + 'SELECT ?r WHERE { ?f ex:crop "maize" . ?f ex:rainfall ?r }'
        )
        solutions, metrics = execute_federated(query, endpoints)
        assert len(solutions) == 3  # fields 0, 2, 4 are maize
        weather = next(e for e in endpoints if e.name == "weather")
        assert weather.bindings_shipped == 3

    def test_distinct(self, endpoints):
        solutions, _ = execute_federated(
            PREFIX + "SELECT DISTINCT ?c WHERE { ?f ex:crop ?c }", endpoints
        )
        assert len(solutions) == 2

    def test_empty_result_short_circuits(self, endpoints):
        solutions, metrics = execute_federated(
            PREFIX + 'SELECT ?f WHERE { ?f ex:crop "rice" . ?f ex:rainfall ?r }',
            endpoints,
        )
        assert solutions == []
        # The rainfall pattern never ran: no solutions to bind.
        weather = next(e for e in endpoints if e.name == "weather")
        assert weather.requests == 0


class TestSolutionModifiers:
    """Modifiers and aggregates are answered like the centralised store."""

    def test_order_by_desc(self, endpoints):
        solutions, _ = execute_federated(
            PREFIX
            + "SELECT ?f ?r WHERE { ?f ex:crop ?c . ?f ex:rainfall ?r } "
            "ORDER BY DESC(?r)",
            endpoints,
        )
        assert [s[Variable("f")] for s in solutions] == [
            EX.field4, EX.field3, EX.field2, EX.field1, EX.field0,
        ]

    @pytest.mark.parametrize(
        "modifiers, expected",
        [("LIMIT 2", [0, 1]), ("LIMIT 2 OFFSET 1", [1, 2]), ("OFFSET 3", [3, 4])],
    )
    def test_order_by_with_slice(self, endpoints, modifiers, expected):
        solutions, metrics = execute_federated(
            PREFIX
            + "SELECT ?f WHERE { ?f ex:crop ?c . ?f ex:rainfall ?r } "
            f"ORDER BY ?f {modifiers}",
            endpoints,
        )
        assert solutions == [{Variable("f"): EX[f"field{i}"]} for i in expected]
        assert metrics.results == len(expected)

    def test_count(self, endpoints):
        solutions, metrics = execute_federated(
            PREFIX
            + "SELECT (COUNT(?f) AS ?n) WHERE { ?f ex:crop ?c . ?f ex:rainfall ?r }",
            endpoints,
        )
        assert solutions == [{Variable("n"): Literal.from_python(5)}]
        assert metrics.results == 1

    def test_tenant_backend_orders(self, endpoints):
        from repro.serving.backends import FederationBackend

        solutions, _ = FederationBackend(endpoints).execute(
            PREFIX + "SELECT ?r WHERE { ?f ex:rainfall ?r } ORDER BY DESC(?r) LIMIT 1"
        )
        assert solutions == [{Variable("r"): Literal.from_python(140)}]
