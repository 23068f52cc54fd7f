"""The plan cache: exact invalidation by content version, safe sharing."""

import pytest

from repro.cache import PlanCache
from repro.geometry import Point
from repro.geosparql import GeoStore, geometry_literal
from repro.rdf import GEO, Graph, Literal, Namespace
from repro.sparql import Variable, evaluate, parse_query
from repro.sparql.algebra import CompileOptions

EX = Namespace("http://ex.org/")
PREFIX = "PREFIX ex: <http://ex.org/> "
GEO_PREFIXES = (
    "PREFIX ex: <http://ex.org/> "
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
)

QUERY = PREFIX + "SELECT ?n WHERE { ?x ex:name ?n } ORDER BY ?n"


def people_graph():
    graph = Graph()
    for key, name in (("alice", "Alice"), ("bob", "Bob")):
        graph.add(EX[key], EX.name, Literal.from_python(name))
    return graph


def names(result):
    return [str(s[Variable("n")].to_python()) for s in result]


class TestGraphVersion:
    def test_version_starts_at_zero(self):
        assert Graph().version == 0

    def test_add_bumps_version(self):
        graph = Graph()
        graph.add(EX.a, EX.p, EX.b)
        assert graph.version == 1

    def test_duplicate_add_does_not_bump(self):
        graph = Graph()
        graph.add(EX.a, EX.p, EX.b)
        graph.add(EX.a, EX.p, EX.b)
        assert graph.version == 1

    def test_remove_bumps_version(self):
        graph = Graph()
        graph.add(EX.a, EX.p, EX.b)
        removed = graph.remove(EX.a, EX.p, EX.b)
        assert removed
        assert graph.version == 2


class TestParseTier:
    def test_parse_memoises_the_ast_object(self):
        cache = PlanCache()
        assert cache.parse(QUERY, parse_query) is cache.parse(QUERY, parse_query)
        assert cache.stats["parses"]["hits"] == 1
        assert cache.stats["parses"]["misses"] == 1

    def test_different_text_different_ast(self):
        cache = PlanCache()
        other = PREFIX + "SELECT ?x WHERE { ?x ex:name ?n }"
        assert cache.parse(QUERY, parse_query) is not cache.parse(other, parse_query)


class TestPlanTier:
    def test_build_runs_once_per_key(self):
        cache = PlanCache()
        graph = people_graph()
        calls = []
        build = lambda: calls.append(1) or "plan"
        for _ in range(3):
            cache.plan(graph, "q", None, graph.version, build)
        assert len(calls) == 1

    def test_version_bump_forces_rebuild(self):
        cache = PlanCache()
        graph = people_graph()
        calls = []
        build = lambda: calls.append(1) or "plan"
        cache.plan(graph, "q", None, graph.version, build)
        graph.add(EX.carol, EX.name, Literal.from_python("Carol"))
        cache.plan(graph, "q", None, graph.version, build)
        assert len(calls) == 2

    def test_options_are_part_of_the_key(self):
        cache = PlanCache()
        graph = people_graph()
        calls = []
        build = lambda: calls.append(1) or "plan"
        cache.plan(graph, "q", CompileOptions(push_filters=True), 0, build)
        cache.plan(graph, "q", CompileOptions(push_filters=False), 0, build)
        assert len(calls) == 2

    def test_owners_never_collide_in_a_shared_cache(self):
        cache = PlanCache()
        graph_a, graph_b = people_graph(), people_graph()
        cache.plan(graph_a, "q", None, 0, lambda: "plan-a")
        assert cache.plan(graph_b, "q", None, 0, lambda: "plan-b") == "plan-b"

    def test_owner_tokens_survive_for_live_objects(self):
        cache = PlanCache()
        graph = people_graph()
        assert cache.token(graph) == cache.token(graph)

    def test_collected_owner_frees_its_token_slot(self):
        cache = PlanCache()
        cache.token(people_graph())  # owner dies immediately
        import gc

        gc.collect()
        assert len(cache._tokens) == 0


class TestEvaluatorIntegration:
    def test_results_identical_with_and_without_cache(self):
        graph = people_graph()
        cache = PlanCache()
        bare = evaluate(graph, QUERY)
        cold = evaluate(graph, QUERY, cache=cache)
        warm = evaluate(graph, QUERY, cache=cache)
        assert bare == cold == warm
        assert cache.stats["plans"]["hits"] == 1

    def test_mutation_invalidates_cached_plan(self):
        graph = people_graph()
        cache = PlanCache()
        assert names(evaluate(graph, QUERY, cache=cache)) == ["Alice", "Bob"]
        graph.add(EX.carol, EX.name, Literal.from_python("Carol"))
        assert names(evaluate(graph, QUERY, cache=cache)) == [
            "Alice", "Bob", "Carol",
        ]

    def test_ast_queries_take_the_uncached_path(self):
        from repro.sparql import parse_query

        graph = people_graph()
        cache = PlanCache()
        ast = parse_query(QUERY)
        result = evaluate(graph, ast, cache=cache)
        assert names(result) == ["Alice", "Bob"]
        assert cache.stats["plans"]["hits"] == 0
        assert cache.stats["plans"]["misses"] == 0


class TestGeoStoreIntegration:
    def spatial_query(self):
        from repro.geometry import Polygon

        box = geometry_literal(Polygon.box(-1, -1, 6, 6))
        return (
            GEO_PREFIXES
            + "SELECT ?f WHERE { ?f geo:asWKT ?g . "
            + f'FILTER (geof:sfIntersects(?g, "{box.lexical}"^^geo:wktLiteral)) }}'
        )

    def load(self, store):
        for i, (x, y) in enumerate([(0, 0), (5, 5), (20, 20)]):
            store.add(EX[f"f{i}"], GEO.asWKT, geometry_literal(Point(x, y)))
        return store

    def test_warm_query_reuses_the_spatial_plan(self):
        store = self.load(GeoStore(plan_cache=PlanCache()))
        query = self.spatial_query()
        cold = store.query(query)
        warm = store.query(query)
        assert cold == warm
        assert {s[Variable("f")] for s in warm} == {EX.f0, EX.f1}
        assert store.plan_cache.stats["plans"]["hits"] == 1

    def test_new_geometry_invalidates_the_candidate_list(self):
        # The spatial rewrite bakes R-tree candidates into the plan; a
        # cached plan surviving a store mutation would silently drop the
        # new feature. content_version keying prevents exactly that.
        store = self.load(GeoStore(plan_cache=PlanCache()))
        query = self.spatial_query()
        assert {s[Variable("f")] for s in store.query(query)} == {EX.f0, EX.f1}
        store.add(EX.f9, GEO.asWKT, geometry_literal(Point(1, 1)))
        assert {s[Variable("f")] for s in store.query(query)} == {
            EX.f0, EX.f1, EX.f9,
        }

    def test_content_version_tracks_the_graph(self):
        store = GeoStore()
        before = store.content_version
        store.add(EX.f0, GEO.asWKT, geometry_literal(Point(0, 0)))
        assert store.content_version > before

    def test_plan_cache_attachable_post_hoc(self):
        store = self.load(GeoStore())
        store.plan_cache = PlanCache()
        query = self.spatial_query()
        store.query(query)
        store.query(query)
        assert store.plan_cache.stats["plans"]["hits"] == 1


class TestCatalogIntegration:
    def test_catalog_threads_cache_to_its_store(self):
        from repro.catalog import SemanticCatalog

        cache = PlanCache()
        catalog = SemanticCatalog(plan_cache=cache)
        assert catalog.plan_cache is cache
        assert catalog.store.plan_cache is cache
