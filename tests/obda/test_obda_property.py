"""Property test: the virtual store always agrees with materialisation.

Random tables, random selection windows, random scalar thresholds — for every
draw, the VirtualGeoStore's answers must equal a GeoStore loaded by running
the same mapping through GeoTriples. This is the core OBDA correctness
contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Polygon
from repro.geosparql import geometry_literal
from repro.geotriples import ObjectMap, TriplesMap, transform_to_store
from repro.obda import Column, Database, VirtualGeoStore
from repro.rdf.term import XSD_INTEGER

EX = "http://ex.org/"
PREFIXES = (
    "PREFIX ex: <http://ex.org/> "
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
)

CROPS = ("wheat", "maize", "rape")

row_strategy = st.fixed_dictionaries(
    {
        "crop": st.sampled_from(CROPS),
        "area": st.integers(0, 50),
        "x": st.integers(0, 40),
        "y": st.integers(0, 40),
        "has_geom": st.booleans(),
    }
)


def build_rows(raw_rows):
    rows = []
    for index, raw in enumerate(raw_rows):
        geometry = (
            Polygon.box(raw["x"], raw["y"], raw["x"] + 5, raw["y"] + 5)
            if raw["has_geom"]
            else None
        )
        rows.append(
            {
                "id": index,
                "crop": raw["crop"],
                "area": raw["area"],
                "geometry": geometry,
            }
        )
    return rows


def mapping():
    return TriplesMap(
        subject_template=EX + "f/{id}",
        type_iri=EX + "Field",
        object_maps=[
            ObjectMap(predicate=EX + "crop", column="crop"),
            ObjectMap(predicate=EX + "area", column="area", datatype=XSD_INTEGER),
            ObjectMap(predicate=EX + "g", column="geometry", is_geometry=True),
        ],
    )


def build_both(rows):
    db = Database()
    table = db.create_table(
        "fields",
        [
            Column("id", "integer"),
            Column("crop", "string"),
            Column("area", "integer"),
            Column("geometry", "geometry"),
        ],
    )
    table.insert_many(rows)
    virtual = VirtualGeoStore(db)
    virtual.add_mapping("fields", mapping())
    materialised = transform_to_store([dict(r) for r in rows], mapping())
    return virtual, materialised


def canonical(solutions):
    return sorted(
        sorted((v.name, repr(t)) for v, t in s.items()) for s in solutions
    )


class TestVirtualEqualsMaterialised:
    @given(
        raw=st.lists(row_strategy, min_size=0, max_size=12),
        threshold=st.integers(0, 50),
        crop=st.sampled_from(CROPS),
    )
    @settings(max_examples=30, deadline=None)
    def test_scalar_queries(self, raw, threshold, crop):
        virtual, materialised = build_both(build_rows(raw))
        queries = [
            "SELECT ?f ?c WHERE { ?f ex:crop ?c }",
            f'SELECT ?f WHERE {{ ?f ex:crop "{crop}" . ?f ex:area ?a . '
            f"FILTER (?a >= {threshold}) }}",
        ]
        for query in queries:
            assert canonical(virtual.query(PREFIXES + query)) == canonical(
                materialised.query(PREFIXES + query)
            )

    @given(
        raw=st.lists(row_strategy, min_size=0, max_size=12),
        wx=st.integers(0, 40),
        wy=st.integers(0, 40),
        size=st.integers(1, 30),
    )
    @settings(max_examples=30, deadline=None)
    def test_spatial_queries(self, raw, wx, wy, size):
        virtual, materialised = build_both(build_rows(raw))
        window = geometry_literal(Polygon.box(wx, wy, wx + size, wy + size))
        query = (
            "SELECT ?f WHERE { ?f geo:hasGeometry ?n . ?n geo:asWKT ?wkt . "
            + f'FILTER (geof:sfIntersects(?wkt, "{window.lexical}"^^geo:wktLiteral)) }}'
        )
        assert canonical(virtual.query(PREFIXES + query)) == canonical(
            materialised.query(PREFIXES + query)
        )


# A query is (select clause, what follows WHERE, ordering is total).
# ``ORDER BY ?a ?f`` orders the rows totally (?f is one per row), and so
# does a single or per-group aggregate row, so those answers must agree as
# lists — after any projection, DISTINCT or slice. A partial ORDER BY leaves
# ties free: those compare as multisets and take no slice.
modified_queries = st.one_of(
    st.tuples(
        st.sampled_from(["?f ?a", "?f", "DISTINCT ?a", "DISTINCT ?c ?a"]),
        st.builds(
            "ORDER BY {} {}".format,
            st.sampled_from(["?a ?f", "DESC(?a) ?f"]),
            st.sampled_from(["", "LIMIT 3", "OFFSET 2", "LIMIT 2 OFFSET 1"]),
        ),
        st.just(True),
    ),
    st.tuples(
        st.sampled_from(["?f ?a", "DISTINCT ?c", "*"]),
        st.sampled_from(["", "ORDER BY DESC(?a)", "ORDER BY ?c"]),
        st.just(False),
    ),
    st.sampled_from(
        [
            ("(COUNT(?f) AS ?n)", "", True),
            ("(SUM(?a) AS ?s)", "", True),
            ("?c (COUNT(?f) AS ?n) (SUM(?a) AS ?s)", "GROUP BY ?c ORDER BY ?c", True),
        ]
    ),
)


class TestModifiersEqualMaterialised:
    @given(
        raw=st.lists(row_strategy, min_size=0, max_size=10),
        threshold=st.integers(0, 50),
        shape=modified_queries,
    )
    @settings(max_examples=50, deadline=None)
    def test_modifiers_and_aggregates(self, raw, threshold, shape):
        select, tail, total = shape
        query = PREFIXES + (
            f"SELECT {select} WHERE {{ ?f ex:crop ?c . ?f ex:area ?a . "
            f"FILTER (?a >= {threshold}) }} {tail}"
        )
        virtual, materialised = build_both(build_rows(raw))
        got, want = virtual.query(query), materialised.query(query)
        if total:
            assert got == want
        else:
            assert canonical(got) == canonical(want)
