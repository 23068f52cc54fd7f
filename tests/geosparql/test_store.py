"""GeoStore tests: spatial query answering, index acceleration, baseline parity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RDFError, WKTParseError
from repro.geometry import Point, Polygon
from repro.geosparql import GeoStore, NaiveGeoStore, geometry_literal
from repro.geosparql.literals import WKT_DATATYPE
from repro.rdf import GEO, Namespace
from repro.rdf.term import Literal
from repro.sparql import CompileOptions, ExecContext, Variable, parse_query
from repro.sparql.algebra import TableOp, operator_variables
from repro.sparql.evaluator import _evaluate_op
from repro.sparql.pipeline import compile_plan

EX = Namespace("http://ex.org/")
PREFIXES = (
    "PREFIX ex: <http://ex.org/> "
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
)


def load_points(store, coords):
    """Load features ex:f{i} with point geometries."""
    for i, (x, y) in enumerate(coords):
        feature = EX[f"f{i}"]
        store.add(feature, GEO.asWKT, geometry_literal(Point(x, y)))
        store.add(feature, EX.id, Literal.from_python(i))
    return store


def wkt(geometry):
    return f'"{geometry_literal(geometry).lexical}"^^geo:wktLiteral'


def in_box(variable, min_x, min_y, max_x, max_y):
    box = wkt(Polygon.box(min_x, min_y, max_x, max_y))
    return f"FILTER (geof:sfIntersects({variable}, {box}))"


def selection_query(min_x, min_y, max_x, max_y):
    return (
        PREFIXES
        + "SELECT ?f WHERE { ?f geo:asWKT ?g . "
        + in_box("?g", min_x, min_y, max_x, max_y)
        + " }"
    )


def result_ids(result):
    return {s[Variable("f")] for s in result}


ENGINES = [CompileOptions(), CompileOptions(engine="vector")]


class TestSelection:
    def test_rectangular_selection(self):
        store = load_points(GeoStore(), [(0, 0), (5, 5), (20, 20)])
        result = store.query(selection_query(-1, -1, 6, 6))
        assert result_ids(result) == {EX.f0, EX.f1}

    def test_selection_empty(self):
        store = load_points(GeoStore(), [(0, 0)])
        assert store.query(selection_query(10, 10, 20, 20)) == []

    def test_boundary_point_included(self):
        store = load_points(GeoStore(), [(5, 5)])
        result = store.query(selection_query(5, 5, 10, 10))
        assert result_ids(result) == {EX.f0}

    def test_spatial_rewrite_recorded(self):
        store = load_points(GeoStore(), [(0, 0), (1, 1)])
        store.query(selection_query(-1, -1, 2, 2))
        assert store.stats["spatial_rewrites"] == 1
        assert store.stats["candidates_examined"] == 2

    def test_naive_store_no_rewrite(self):
        store = load_points(NaiveGeoStore(), [(0, 0), (1, 1)])
        result = store.query(selection_query(-1, -1, 0.5, 0.5))
        assert result_ids(result) == {EX.f0}
        assert store.stats["spatial_rewrites"] == 0

    def test_candidate_pruning(self):
        # Index must examine far fewer candidates than the store size.
        rng = random.Random(3)
        coords = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(500)]
        store = load_points(GeoStore(), coords)
        store.query(selection_query(0, 0, 50, 50))
        assert store.stats["candidates_examined"] < 100


class TestRelations:
    def test_within(self):
        store = GeoStore()
        store.add(EX.small, GEO.asWKT, geometry_literal(Polygon.box(1, 1, 2, 2)))
        store.add(EX.big, GEO.asWKT, geometry_literal(Polygon.box(0, 0, 50, 50)))
        box = geometry_literal(Polygon.box(0, 0, 10, 10))
        query = (
            PREFIXES
            + "SELECT ?f WHERE { ?f geo:asWKT ?g . "
            + f'FILTER (geof:sfWithin(?g, "{box.lexical}"^^geo:wktLiteral)) }}'
        )
        assert result_ids(store.query(query)) == {EX.small}

    def test_contains(self):
        store = GeoStore()
        store.add(EX.big, GEO.asWKT, geometry_literal(Polygon.box(0, 0, 50, 50)))
        store.add(EX.small, GEO.asWKT, geometry_literal(Polygon.box(1, 1, 2, 2)))
        probe = geometry_literal(Polygon.box(10, 10, 20, 20))
        query = (
            PREFIXES
            + "SELECT ?f WHERE { ?f geo:asWKT ?g . "
            + f'FILTER (geof:sfContains(?g, "{probe.lexical}"^^geo:wktLiteral)) }}'
        )
        assert result_ids(store.query(query)) == {EX.big}

    def test_disjoint_not_indexed_but_correct(self):
        store = load_points(GeoStore(), [(0, 0), (100, 100)])
        probe = geometry_literal(Polygon.box(-1, -1, 1, 1))
        query = (
            PREFIXES
            + "SELECT ?f WHERE { ?f geo:asWKT ?g . "
            + f'FILTER (geof:sfDisjoint(?g, "{probe.lexical}"^^geo:wktLiteral)) }}'
        )
        result = store.query(query)
        assert result_ids(result) == {EX.f1}
        assert store.stats["spatial_rewrites"] == 0

    def test_distance_filter(self):
        store = load_points(GeoStore(), [(0, 0), (3, 4), (30, 40)])
        origin = geometry_literal(Point(0, 0))
        query = (
            PREFIXES
            + "SELECT ?f WHERE { ?f geo:asWKT ?g . "
            + f'FILTER (geof:distance(?g, "{origin.lexical}"^^geo:wktLiteral) <= 5) }}'
        )
        assert result_ids(store.query(query)) == {EX.f0, EX.f1}

    def test_multipolygon_selection(self):
        store = GeoStore()
        from repro.geometry import MultiPolygon

        mp = MultiPolygon([Polygon.box(0, 0, 1, 1), Polygon.box(10, 10, 11, 11)])
        store.add(EX.both, GEO.asWKT, geometry_literal(mp))
        result = store.query(selection_query(10.5, 10.5, 12, 12))
        assert result_ids(result) == {EX.both}
        # Box between the parts: bbox hit but exact test rejects.
        assert store.query(selection_query(3, 3, 8, 8)) == []


class TestMixedQueries:
    def test_spatial_plus_attribute_join(self):
        store = load_points(GeoStore(), [(0, 0), (1, 1), (2, 2)])
        query = (
            selection_query(-1, -1, 5, 5)[:-1]
            + " ?f ex:id ?i . FILTER (?i >= 1) }"
        )
        assert result_ids(store.query(query)) == {EX.f1, EX.f2}

    def test_ask_spatial(self):
        store = load_points(GeoStore(), [(0, 0)])
        box = geometry_literal(Polygon.box(-1, -1, 1, 1))
        query = (
            PREFIXES
            + "ASK { ?f geo:asWKT ?g . "
            + f'FILTER (geof:sfIntersects(?g, "{box.lexical}"^^geo:wktLiteral)) }}'
        )
        assert store.query(query) is True

    def test_count_in_region(self):
        store = load_points(GeoStore(), [(0, 0), (1, 1), (50, 50)])
        box = geometry_literal(Polygon.box(-1, -1, 2, 2))
        query = (
            PREFIXES
            + "SELECT (COUNT(?f) AS ?n) WHERE { ?f geo:asWKT ?g . "
            + f'FILTER (geof:sfIntersects(?g, "{box.lexical}"^^geo:wktLiteral)) }}'
        )
        [row] = store.query(query)
        assert row[Variable("n")].to_python() == 2

    def test_geof_area_in_filter(self):
        store = GeoStore()
        store.add(EX.small, GEO.asWKT, geometry_literal(Polygon.box(0, 0, 1, 1)))
        store.add(EX.big, GEO.asWKT, geometry_literal(Polygon.box(0, 0, 10, 10)))
        query = (
            PREFIXES
            + "SELECT ?f WHERE { ?f geo:asWKT ?g . FILTER (geof:area(?g) > 50) }"
        )
        assert result_ids(store.query(query)) == {EX.big}


class TestIndexBaselineParity:
    """GeoStore and NaiveGeoStore must always agree — the index is invisible."""

    @given(
        points=st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)
            ),
            min_size=0,
            max_size=40,
        ),
        window=st.tuples(
            st.floats(0, 80, allow_nan=False), st.floats(0, 80, allow_nan=False)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_selection_parity(self, points, window):
        indexed = load_points(GeoStore(), points)
        naive = load_points(NaiveGeoStore(), points)
        wx, wy = window
        query = selection_query(wx, wy, wx + 20, wy + 20)
        assert result_ids(indexed.query(query)) == result_ids(naive.query(query))

    @given(
        points=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=12
        ),
        supplied=st.tuples(st.integers(0, 40), st.integers(0, 40)),
        window=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    )
    @settings(max_examples=40, deadline=None)
    def test_values_supplied_geometry_parity(self, points, supplied, window):
        """A geometry the query brings along (possibly one the store also
        holds) is filtered like a stored one: the index never saw it."""
        indexed = load_points(GeoStore(), points)
        naive = load_points(NaiveGeoStore(), points)
        wx, wy = window
        query = (
            PREFIXES
            + "SELECT ?g WHERE { { ?f geo:asWKT ?g } UNION "
            + f"{{ VALUES ?g {{ {wkt(Point(*supplied))} }} }} "
            + in_box("?g", wx, wy, wx + 10, wy + 10)
            + " }"
        )
        for options in ENGINES:
            got = sorted(str(s[Variable("g")]) for s in indexed.query(query, options))
            want = sorted(str(s[Variable("g")]) for s in naive.query(query, options))
            assert got == want, options.engine

    def test_bulk_load_matches_incremental(self):
        coords = [(i * 3.0, i * 7.0 % 50) for i in range(200)]
        incremental = load_points(GeoStore(), coords)
        bulk = GeoStore()
        triples = []
        for i, (x, y) in enumerate(coords):
            triples.append((EX[f"f{i}"], GEO.asWKT, geometry_literal(Point(x, y))))
            triples.append((EX[f"f{i}"], EX.id, Literal.from_python(i)))
        bulk.bulk_load(triples)
        query = selection_query(0, 0, 100, 30)
        assert result_ids(bulk.query(query)) == result_ids(incremental.query(query))
        assert bulk.geometry_count == incremental.geometry_count == 200


class TestAtomicLoad:
    """A load that raises leaves the store as it was: the graph, the
    geometry set and the R-tree all unchanged, in both stores."""

    POINTS = [(EX[f"f{i}"], GEO.asWKT, geometry_literal(Point(i, i))) for i in range(5)]
    MALFORMED = (EX.bad, GEO.asWKT, Literal("POINT (oops", datatype=WKT_DATATYPE))
    #: A bad triple and the typed error it raises.
    BAD = {
        "geometry": (MALFORMED, WKTParseError),
        "subject": ((Literal("x"), GEO.asWKT, geometry_literal(Point(9, 9))), RDFError),
    }

    @pytest.mark.parametrize("store_class", [GeoStore, NaiveGeoStore])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_bad_triple_leaves_the_store_unchanged(self, store_class, bad):
        store = store_class()
        store.add(EX.kept, EX.id, Literal.from_python(0))
        version, terms = store.graph.version, store.graph.term_count
        triple, error = self.BAD[bad]
        with pytest.raises(error):
            store.bulk_load(self.POINTS + [triple])
        assert len(store) == 1 and store.geometry_count == 0
        assert (store.graph.version, store.graph.term_count) == (version, terms)
        assert store.bulk_load(self.POINTS) == 5
        everything = selection_query(-1, -1, 10, 10)
        for options in ENGINES:
            assert len(store.query(everything, options)) == 5, options.engine

    def test_bad_geometry_add_changes_nothing(self):
        store = GeoStore()
        with pytest.raises(WKTParseError):
            store.add(*self.MALFORMED)
        assert len(store) == 0 and store.graph.version == 0


class TestSolutionModifiers:
    """GeoStore shares the evaluator's modifier pipeline (the E19 bugfix:
    ORDER BY must see pre-projection bindings, then project)."""

    def ordered_store(self):
        # Insertion order deliberately matches *neither* sort direction.
        return load_points(GeoStore(), [(5, 0), (1, 0), (9, 0), (3, 0)])

    def test_order_by_non_projected_ascending(self):
        store = self.ordered_store()
        result = store.query(
            PREFIXES + "SELECT ?f WHERE { ?f ex:id ?i } ORDER BY ?i"
        )
        assert [s[Variable("f")] for s in result] == [
            EX.f0, EX.f1, EX.f2, EX.f3,
        ]
        # ...and the sort key itself was projected away.
        assert all(set(s) == {Variable("f")} for s in result)

    def test_order_by_non_projected_descending(self):
        store = self.ordered_store()
        result = store.query(
            PREFIXES + "SELECT ?f WHERE { ?f ex:id ?i } ORDER BY DESC(?i)"
        )
        assert [s[Variable("f")] for s in result] == [
            EX.f3, EX.f2, EX.f1, EX.f0,
        ]

    def test_distinct_order_offset_limit_oracle(self):
        store = GeoStore()
        # (category, rank): sorted by rank -> b(1), a(2), c(3), a(4)
        for i, (cat, rank) in enumerate(
            [("a", 2), ("b", 1), ("a", 4), ("c", 3)]
        ):
            store.add(EX[f"r{i}"], EX.cat, Literal.from_python(cat))
            store.add(EX[f"r{i}"], EX.rank, Literal.from_python(rank))
        query = (
            PREFIXES
            + "SELECT DISTINCT ?c WHERE { ?x ex:cat ?c . ?x ex:rank ?r } "
            + "ORDER BY ?r OFFSET 1 LIMIT 2"
        )
        # distinct-after-sort: [b, a, c] -> offset 1, limit 2 -> [a, c]
        values = [str(s[Variable("c")].to_python()) for s in store.query(query)]
        assert values == ["a", "c"]

    def test_matches_core_evaluator(self):
        from repro.sparql import evaluate

        store = self.ordered_store()
        query = PREFIXES + "SELECT ?f WHERE { ?f ex:id ?i } ORDER BY DESC(?i)"
        assert store.query(query) == evaluate(store.graph, query)


class TestSpatialCandidateOp:
    """The rewrite's candidate scan is a plain VALUES table: these are the
    custom operator's old cases, asserted on the table the store plants."""

    COORDS = [(0, 0), (5, 5), (99, 99)]

    def planted(self):
        store = load_points(GeoStore(), self.COORDS)
        query = parse_query(selection_query(-1, -1, 6, 6))
        op = compile_plan(query.where, store.graph, None, store._rewrite)
        while not isinstance(op, TableOp):  # leftmost leaf: it drives the join
            op = getattr(op, "left", None) or op.operand
        box = Polygon.box(-1, -1, 6, 6).bbox
        return store, op, list(store._rtree.search(box))

    def evaluate(self, store, op, bindings):
        ctx = ExecContext(store.graph, store.registry)
        return list(_evaluate_op(op, ctx, bindings))

    def test_unbound_variable_yields_all_candidates(self):
        store, op, candidates = self.planted()
        solutions = self.evaluate(store, op, {})
        assert len(candidates) == 2
        assert [s[Variable("g")] for s in solutions] == candidates

    def test_bound_candidate_passes_membership(self):
        store, op, candidates = self.planted()
        bindings = {Variable("g"): candidates[1], Variable("f"): EX.f1}
        solutions = self.evaluate(store, op, bindings)
        assert solutions == [bindings]
        assert solutions[0] is not bindings  # a copy, not the caller's dict

    def test_bound_non_candidate_is_filtered(self):
        store, op, _ = self.planted()
        outside = {Variable("g"): geometry_literal(Point(99, 99))}
        assert self.evaluate(store, op, outside) == []

    def test_bound_variables_reports_its_variable(self):
        _, op, _ = self.planted()
        assert operator_variables(op) == {Variable("g")}


class TestRewriteSoundness:
    """The candidate table holds indexed literals only, so it may be planted
    only where ?g can come from nowhere but a triple pattern. Each shape
    returned 0 rows (or lost ?n) on GeoStore before the rule existed."""

    NEAR = wkt(Point(1, 1))
    BOX = in_box("?g", 0, 0, 2, 2)
    SHAPES = {
        "values": f"SELECT ?g WHERE {{ VALUES ?g {{ {NEAR} }} {BOX} }}",
        "bind": f"SELECT ?g WHERE {{ BIND({NEAR} AS ?g) {BOX} }}",
        "bound-outside-optional": (
            f"SELECT ?g ?n WHERE {{ VALUES ?g {{ {NEAR} }} "
            f"OPTIONAL {{ ex:a ex:name ?n {BOX} }} }}"
        ),
        "union-branch": (
            "SELECT ?f ?g WHERE { { ?f geo:asWKT ?g } UNION "
            f"{{ VALUES (?f ?g) {{ (ex:v {NEAR}) }} }} {BOX} }}"
        ),
    }

    def stores(self):
        stores = GeoStore(), NaiveGeoStore()
        for store in stores:
            store.add(EX.far, GEO.asWKT, geometry_literal(Point(50, 50)))
            store.add(EX.a, EX.name, Literal("A"))
        return stores

    @pytest.mark.parametrize("options", ENGINES, ids=lambda o: o.engine)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_indexed_answers_like_naive(self, shape, options):
        indexed, naive = self.stores()
        query = PREFIXES + self.SHAPES[shape]
        rows = indexed.query(query, options)
        assert rows == naive.query(query, options)
        [row] = rows
        assert row[Variable("g")] == geometry_literal(Point(1, 1))
        if shape == "bound-outside-optional":
            assert row[Variable("n")] == Literal("A")
        assert indexed.stats["spatial_rewrites"] == 0

    def test_stored_geometries_still_use_the_index(self):
        indexed, _ = self.stores()
        query = PREFIXES + (
            "SELECT ?f WHERE { { ?f geo:asWKT ?g } UNION { ?f ex:shape ?g } "
            + in_box("?g", 40, 40, 60, 60)
            + " }"
        )
        assert result_ids(indexed.query(query)) == {EX.far}
        assert indexed.stats["spatial_rewrites"] == 1
