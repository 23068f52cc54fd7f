"""GeoStore.explain tests."""

import pytest

from repro.geometry import Point, Polygon
from repro.geosparql import GeoStore, NaiveGeoStore, geometry_literal
from repro.rdf import GEO, Literal, Namespace

EX = Namespace("http://ex.org/")
PREFIXES = (
    "PREFIX ex: <http://ex.org/> "
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
)


@pytest.fixture
def store():
    s = GeoStore()
    for i in range(10):
        s.add(EX[f"f{i}"], GEO.asWKT, geometry_literal(Point(i * 10, 0)))
        s.add(EX[f"f{i}"], EX.kind, Literal("even" if i % 2 == 0 else "odd"))
    return s


def spatial_query():
    box = geometry_literal(Polygon.box(0, -5, 25, 5))
    return (
        PREFIXES
        + "SELECT ?f WHERE { ?f geo:asWKT ?g . ?f ex:kind ?k . "
        + f'FILTER (geof:sfIntersects(?g, "{box.lexical}"^^geo:wktLiteral)) '
        + 'FILTER (?k = "even") }'
    )


class TestExplain:
    def test_spatial_plan_shows_candidates(self, store):
        plan = store.explain(spatial_query())
        assert "Values(?g" in plan
        assert "sfIntersects" in plan
        assert "Scan(" in plan
        # The candidate table drives the join: it appears before any Scan.
        assert plan.index("Values(") < plan.index("Scan(")

    def test_naive_plan_has_no_candidates(self, store):
        naive = NaiveGeoStore()
        for triple in store.graph:
            naive.add(*triple)
        plan = naive.explain(spatial_query())
        assert "Values(" not in plan
        assert "sfIntersects" in plan

    def test_plain_query_plan(self, store):
        plan = store.explain(
            PREFIXES + 'SELECT ?f WHERE { ?f ex:kind "even" . ?f geo:asWKT ?g }'
        )
        assert plan.count("Scan(") == 2
        assert "Join" in plan

    def test_plan_matches_execution(self, store):
        """Explaining must not perturb results."""
        query = spatial_query()
        before = store.explain(query)
        result = store.query(query)
        after = store.explain(query)
        assert before == after
        assert len(result) == 2  # f0 (x=0) and f2 (x=20) are even and inside

    def test_candidate_count_in_plan(self, store):
        plan = store.explain(spatial_query())
        # Box [0,25] covers f0, f1, f2 -> 3 candidates.
        assert "Values(?g, 3 rows)" in plan

    def test_bind_renders_its_operand(self, store):
        plan = store.explain(
            PREFIXES
            + "SELECT ?x ?y WHERE { ?x ex:p ?o . ?o ex:q ?z BIND(STR(?x) AS ?y) }"
        )
        lines = plan.splitlines()
        assert lines[0] == "Extend(?y)"
        assert lines[1] == "  Join"
        assert plan.count("Scan(") == 2

    def test_user_values_render_like_planted_ones(self, store):
        plan = store.explain(
            PREFIXES
            + "SELECT ?f WHERE { VALUES (?f ?k) { (ex:f0 'even') (ex:f1 UNDEF) } "
            + "?f ex:kind ?k }"
        )
        assert "Values(?f ?k, 2 rows)" in plan
