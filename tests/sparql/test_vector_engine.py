"""Unit tests for the E22 columnar execution engine.

Exercises the pieces individually — encoder/batches, the unbound-tolerant
hash join, cost-based ordering — and the end-to-end behaviors that define
the engine: identical solution multisets to the interpreted evaluator,
correlated/custom-operator fallback, plan-cache keying per engine, and the
spatially accelerated GeoStore path.
"""

import numpy as np
import pytest

from repro.cache import PlanCache
from repro.rdf import Graph, Literal, Namespace
from repro.rdf.term import XSD_DOUBLE, XSD_INTEGER
from repro.sparql import CompileOptions, Variable, evaluate
from repro.sparql.algebra import order_patterns
from repro.sparql.ast import TriplePattern
from repro.sparql.vector import (
    UNBOUND,
    Batch,
    TermEncoder,
    cost_score,
    hash_join,
    pattern_extent,
)

EX = Namespace("http://ex.org/")
PREFIX = "PREFIX ex: <http://ex.org/> "

VECTOR = CompileOptions(engine="vector")


def canon(result):
    if isinstance(result, bool):
        return result
    return sorted(
        sorted((v.name, str(t)) for v, t in row.items()) for row in result
    )


def both(graph, query):
    interpreted = evaluate(graph, query, options=CompileOptions())
    vector = evaluate(graph, query, options=VECTOR)
    assert canon(interpreted) == canon(vector)
    return vector


# ---------------------------------------------------------------------------
# Batch / join mechanics
# ---------------------------------------------------------------------------

class TestHashJoin:
    def v(self, name):
        return Variable(name)

    def batch(self, **columns):
        nrows = len(next(iter(columns.values())))
        return Batch(
            {self.v(k): np.array(ids, dtype=np.int64) for k, ids in columns.items()},
            nrows,
        )

    def rows(self, batch):
        return sorted(
            tuple(int(batch.columns[v][i]) for v in sorted(batch.columns, key=str))
            for i in range(batch.nrows)
        )

    def test_inner_join_on_shared_ids(self):
        left = self.batch(x=[1, 2, 3], y=[10, 20, 30])
        right = self.batch(x=[2, 3, 4], z=[200, 300, 400])
        out = hash_join(left, right)
        assert self.rows(out) == [(2, 20, 200), (3, 30, 300)]

    def test_unbound_left_cell_matches_and_takes_right_value(self):
        # SPARQL compatibility: an unbound cell is compatible with anything.
        left = self.batch(x=[1, UNBOUND], y=[10, 20])
        right = self.batch(x=[1, 7], z=[100, 700])
        out = hash_join(left, right)
        assert self.rows(out) == [(1, 10, 100), (1, 20, 100), (7, 20, 700)]

    def test_outer_join_pads_unmatched_left_rows(self):
        left = self.batch(x=[1, 2], y=[10, 20])
        right = self.batch(x=[2], z=[200])
        out = hash_join(left, right, outer=True)
        assert self.rows(out) == [(1, 10, UNBOUND), (2, 20, 200)]

    def test_disjoint_join_is_cartesian(self):
        left = self.batch(a=[1, 2])
        right = self.batch(b=[7])
        out = hash_join(left, right)
        assert out.nrows == 2

    def test_multi_column_keys(self):
        left = self.batch(x=[1, 1, 2], y=[5, 6, 5], l=[0, 1, 2])
        right = self.batch(x=[1, 2], y=[6, 5], r=[8, 9])
        out = hash_join(left, right)
        # Column order in rows(): ?l ?r ?x ?y.
        assert self.rows(out) == [(1, 8, 1, 6), (2, 9, 2, 5)]


class TestEncoder:
    def test_graph_and_overflow_ids(self):
        g = Graph()
        g.add(EX.s, EX.p, EX.o)
        enc = TermEncoder(g)
        assert enc.encode(EX.s) == g.term_id(EX.s)
        fresh = Literal.from_python(99)
        overflow = enc.encode(fresh)
        assert overflow >= g.term_count
        assert enc.encode(fresh) == overflow  # deduplicated by value
        assert enc.decode(overflow) == fresh


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

class TestCostOrdering:
    def test_extent_is_exact(self):
        g = Graph()
        for i in range(10):
            g.add(EX[f"s{i}"], EX.common, EX.x)
        g.add(EX.s0, EX.rare, EX.y)
        broad = TriplePattern(Variable("s"), EX.common, Variable("o"))
        narrow = TriplePattern(Variable("s"), EX.rare, Variable("o"))
        assert pattern_extent(broad, g) == 10
        assert pattern_extent(narrow, g) == 1

    def test_greedy_order_starts_with_smallest_extent(self):
        g = Graph()
        for i in range(10):
            g.add(EX[f"s{i}"], EX.common, EX.x)
        g.add(EX.s0, EX.rare, EX.y)
        broad = TriplePattern(Variable("s"), EX.common, Variable("o"))
        narrow = TriplePattern(Variable("s"), EX.rare, Variable("o"))
        ordered = order_patterns([broad, narrow], g, score=cost_score)
        assert ordered[0] is narrow

    def test_connected_patterns_preferred_over_cheaper_disconnected(self):
        g = Graph()
        g.add(EX.a, EX.p, EX.b)
        for i in range(5):
            g.add(EX[f"x{i}"], EX.q, EX[f"y{i}"])
        g.add(EX.solo1, EX.r, EX.z)
        g.add(EX.solo2, EX.r, EX.z)
        start = TriplePattern(Variable("a"), EX.p, Variable("b"))  # extent 1
        connected = TriplePattern(Variable("b"), EX.q, Variable("c"))  # 5
        disconnected = TriplePattern(Variable("u"), EX.r, Variable("v"))  # 2
        ordered = order_patterns(
            [disconnected, connected, start], g, score=cost_score
        )
        # start seeds (smallest extent); then the connected pattern beats the
        # cheaper disconnected one (avoiding a cartesian product).
        assert ordered[0] is start
        assert ordered.index(connected) < ordered.index(disconnected)


# ---------------------------------------------------------------------------
# End-to-end semantics
# ---------------------------------------------------------------------------

@pytest.fixture
def shop():
    g = Graph()
    for i in range(12):
        g.add(EX[f"p{i}"], EX.cat, EX[f"c{i % 3}"])
        g.add(EX[f"p{i}"], EX.price, Literal.from_python(i * 3))
        if i % 2 == 0:
            g.add(EX[f"p{i}"], EX.tag, Literal.from_python(f"t{i % 4}"))
    return g


class TestEndToEnd:
    def test_multi_join_with_filter(self, shop):
        both(
            shop,
            PREFIX + "SELECT ?p ?v WHERE { ?p ex:cat ex:c1 . "
            "?p ex:price ?v . FILTER(?v > 10) }",
        )

    def test_optional_and_order_by(self, shop):
        result = both(
            shop,
            PREFIX + "SELECT ?p ?t WHERE { ?p ex:cat ?c . "
            "OPTIONAL { ?p ex:tag ?t } } ORDER BY ?p",
        )
        assert len(result) == 12

    def test_order_by_numeric_desc_limit(self, shop):
        result = evaluate(
            shop,
            PREFIX + "SELECT ?v WHERE { ?p ex:price ?v } ORDER BY DESC(?v) LIMIT 3",
            options=VECTOR,
        )
        assert [t.to_python() for s in result for t in s.values()] == [33, 30, 27]

    def test_order_by_string_keys_uses_generic_path(self, shop):
        both(shop, PREFIX + "SELECT ?t WHERE { ?p ex:tag ?t } ORDER BY DESC(?t)")

    def test_bind_arithmetic_types(self, shop):
        result = evaluate(
            shop,
            PREFIX + "SELECT ?d ?h WHERE { ?p ex:price ?v . "
            "BIND(?v * 2 AS ?d) BIND(?v / 2 AS ?h) } LIMIT 1",
            options=VECTOR,
        )
        d, h = result[0][Variable("d")], result[0][Variable("h")]
        assert d.datatype == XSD_INTEGER  # int * int stays integer
        assert h.datatype == XSD_DOUBLE  # division is always double

    def test_bind_error_leaves_variable_unbound(self, shop):
        result = both(
            shop,
            PREFIX + "SELECT ?p ?bad WHERE { ?p ex:tag ?t . "
            "BIND(?t + 1 AS ?bad) }",
        )
        assert all(Variable("bad") not in s for s in result)

    def test_values_with_undef(self, shop):
        both(
            shop,
            PREFIX + "SELECT ?p ?c WHERE { VALUES (?p ?c) "
            "{ (ex:p0 UNDEF) (UNDEF ex:c1) } ?p ex:cat ?c }",
        )

    def test_union_with_disjoint_columns(self, shop):
        both(
            shop,
            PREFIX + "SELECT ?a ?b WHERE { { ?x ex:cat ?a } UNION "
            "{ ?x ex:tag ?b } }",
        )

    def test_distinct_after_projection(self, shop):
        result = both(shop, PREFIX + "SELECT DISTINCT ?c WHERE { ?p ex:cat ?c }")
        assert len(result) == 3

    def test_ask(self, shop):
        assert evaluate(
            shop, PREFIX + "ASK { ?p ex:price ?v . FILTER(?v > 30) }",
            options=VECTOR,
        ) is True
        assert evaluate(
            shop, PREFIX + "ASK { ?p ex:price ?v . FILTER(?v > 100) }",
            options=VECTOR,
        ) is False

    def test_aggregates_group_by(self, shop):
        both(
            shop,
            PREFIX + "SELECT ?c (COUNT(?p) AS ?n) (SUM(?v) AS ?s) "
            "(AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
            "WHERE { ?p ex:cat ?c . ?p ex:price ?v } GROUP BY ?c",
        )

    def test_filter_error_rows_are_dropped(self, shop):
        # ?t is a string for tagged products: ?t > 0 errors -> row dropped.
        both(
            shop,
            PREFIX + "SELECT ?p WHERE { ?p ex:cat ?c . "
            "OPTIONAL { ?p ex:tag ?t } FILTER(?t > 0 || ?c = ex:c1) }",
        )

    def test_rebind_raises_in_both_engines(self, shop):
        from repro.errors import SPARQLError

        query = PREFIX + "SELECT ?v WHERE { ?p ex:price ?v . BIND(1 AS ?v) }"
        for options in (CompileOptions(), VECTOR):
            with pytest.raises(SPARQLError):
                evaluate(shop, query, options=options)


class TestCorrelatedFallback:
    def test_optional_filter_on_outer_variable(self, shop):
        # The OPTIONAL's filter references ?v bound on the left: substitution
        # semantics; the vector engine must fall back for this join.
        both(
            shop,
            PREFIX + "SELECT ?p ?t WHERE { ?p ex:price ?v . "
            "OPTIONAL { ?p ex:tag ?t . FILTER(?v > 15) } }",
        )

    def test_non_well_designed_optional(self, shop):
        # ?v appears in the outer group and the inner OPTIONAL, but not in
        # the middle one: bottom-up joining diverges without the blind-
        # variable fallback.
        g = Graph()
        g.add(EX.a, EX.p, EX.v1)
        g.add(EX.b, EX.q, EX.b2)
        g.add(EX.b2, EX.r, EX.v2)
        both(
            g,
            PREFIX + "SELECT * WHERE { ?x ex:p ?v . "
            "OPTIONAL { ?y ex:q ?z . OPTIONAL { ?z ex:r ?v } } }",
        )

    def test_group_filter_keeps_its_scope(self, shop):
        # The inner group's FILTER reads ?v, which only the outer pattern
        # binds: it is evaluated where the group is, not re-pushed onto the
        # join that binds ?v.
        rows = both(
            shop,
            PREFIX + "SELECT * WHERE { { ?p ex:cat ?c FILTER(?v > 15) } "
            "?p ex:price ?v }",
        )
        assert rows == []


class TestPlanCacheIntegration:
    def test_engines_do_not_share_plan_entries(self, shop):
        cache = PlanCache()
        query = PREFIX + "SELECT ?p WHERE { ?p ex:cat ex:c0 . ?p ex:price ?v }"
        a = evaluate(shop, query, options=CompileOptions(), cache=cache)
        b = evaluate(shop, query, options=VECTOR, cache=cache)
        assert canon(a) == canon(b)
        stats = cache.stats["plans"]
        assert stats["misses"] == 2  # one compile per engine
        evaluate(shop, query, options=VECTOR, cache=cache)
        assert cache.stats["plans"]["hits"] == 1

    def test_mutation_invalidates_vector_plan(self, shop):
        cache = PlanCache()
        query = PREFIX + "SELECT ?p WHERE { ?p ex:cat ex:c0 }"
        first = evaluate(shop, query, options=VECTOR, cache=cache)
        shop.add(EX.extra, EX.cat, EX.c0)
        second = evaluate(shop, query, options=VECTOR, cache=cache)
        assert len(second) == len(first) + 1


class TestGeoStoreVector:
    def test_spatial_query_through_vector_engine(self):
        from repro.geosparql import GeoStore, WKT_DATATYPE

        store = GeoStore()
        for i in range(8):
            point = Literal(f"POINT({i} {i})", datatype=WKT_DATATYPE)
            store.add(EX[f"f{i}"], EX.geom, point)
            store.add(EX[f"f{i}"], EX.kind, EX.station)
        query = (
            "PREFIX ex: <http://ex.org/> "
            "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
            "SELECT ?f WHERE { ?f ex:kind ex:station . ?f ex:geom ?g . "
            'FILTER(geof:sfWithin(?g, "POLYGON((-1 -1, 4 -1, 4 4, -1 4, -1 -1))"'
            "^^<http://www.opengis.net/ont/geosparql#wktLiteral>)) }"
        )
        interpreted = store.query(query, options=CompileOptions())
        vector = store.query(query, options=VECTOR)
        assert canon(interpreted) == canon(vector)
        assert len(vector) == 5  # points 0..4 (boundary-inclusive within)
