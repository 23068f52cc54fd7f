"""The column form of the GeoSPARQL relations equals the scalar function.

``sfIntersects``, ``sfWithin`` and ``sfContains`` carry a ``column``
attribute that answers for a whole term column against one constant. Per
cell it must give what the scalar function gives: the same value, and an
error bit exactly where the scalar function raises ``EvaluationError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import LineString, MultiPoint, MultiPolygon, Point, Polygon
from repro.geosparql import GeoStore, geometry_literal
from repro.geosparql.functions import (
    SF_CONTAINS,
    SF_DISJOINT,
    SF_INTERSECTS,
    SF_WITHIN,
    geo_function_registry,
)
from repro.geosparql.literals import WKT_DATATYPE
from repro.rdf import GEO, Namespace
from repro.rdf.term import IRI, Literal
from repro.sparql import CompileOptions
from repro.sparql.ast import Variable
from repro.sparql.dist import DistRuntime
from repro.sparql.functions import EvaluationError

EX = Namespace("http://ex.org/")

REGISTRY = geo_function_registry()
RELATIONS = [SF_INTERSECTS, SF_WITHIN, SF_CONTAINS]

SQUARE_WITH_HOLE = Polygon(
    [(0, 0), (4, 0), (4, 4), (0, 4)], [[(1, 1), (2, 1), (2, 2), (1, 2)]]
)
CONSTANTS = [
    Polygon.box(0, 0, 2, 2),
    SQUARE_WITH_HOLE,
    Polygon([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)]),  # concave
    MultiPolygon([Polygon.box(0, 0, 1, 1), Polygon.box(2, 2, 3, 3)]),
    Point(1, 1),
    LineString([(0, 0), (3, 3)]),
]
BAD_TERMS = [
    Literal("alpha"),
    Literal.from_python(3),
    IRI("http://ex.org/f"),
    Literal("POINT (1)", datatype=WKT_DATATYPE),
    Literal("POLYGON ((0 0, 1 0", datatype=WKT_DATATYPE),
    Literal("<http://ex.org/crs POINT (1 1)", datatype=WKT_DATATYPE),
]

coordinate = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2 + 1e-13, 3.0, 4.0, 5.0])
points = st.builds(Point, coordinate, coordinate)


@st.composite
def box_geometries(draw):
    x0, x1 = sorted(draw(st.tuples(coordinate, coordinate)))
    y0, y1 = sorted(draw(st.tuples(coordinate, coordinate)))
    return Polygon.box(x0, y0, x0 + 0.5 if x0 == x1 else x1, y0 + 0.5 if y0 == y1 else y1)


geometry_cells = st.one_of(
    points,
    points,
    box_geometries(),
    st.builds(lambda a, b: LineString([(a.x, a.y), (b.x, b.y)]), points, points),
    st.builds(lambda a, b: MultiPoint([a, b]), points, points),
).map(geometry_literal)
cells = st.one_of(
    geometry_cells, geometry_cells, st.none(), st.sampled_from(BAD_TERMS)
)


def scalar_outcomes(function, terms, constant, var_first):
    outcomes = []
    for term in terms:
        if term is None:  # an unbound variable errors before the call
            outcomes.append("error")
            continue
        args = [term, constant] if var_first else [constant, term]
        try:
            outcomes.append(bool(function(args)))
        except EvaluationError:
            outcomes.append("error")
    return outcomes


def column_outcomes(function, terms, constant, var_first):
    values, errors = function.column(terms, constant, var_first)
    assert values.dtype == bool and errors.dtype == bool
    assert len(values) == len(errors) == len(terms)
    return [
        "error" if error else bool(value)
        for value, error in zip(values.tolist(), errors.tolist())
    ]


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("var_first", [True, False])
@given(
    terms=st.lists(cells, max_size=25),
    constant=st.sampled_from(CONSTANTS).map(geometry_literal)
    | st.sampled_from(BAD_TERMS),
)
@settings(max_examples=150, deadline=None)
def test_column_equals_scalar_per_cell(relation, var_first, terms, constant):
    function = REGISTRY.get(relation)
    assert column_outcomes(function, terms, constant, var_first) == (
        scalar_outcomes(function, terms, constant, var_first)
    ), (terms, constant)


def test_disjoint_has_no_column_form():
    assert not hasattr(REGISTRY.get(SF_DISJOINT), "column")


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("var_first", [True, False])
def test_geometry_error_is_raised_alike(relation, var_first):
    """A WKT that parses but builds no valid polygon is a type error like
    any other: the scalar function raises EvaluationError, and the column
    form sets that cell's error bit and answers the other cells."""
    function = REGISTRY.get(relation)
    broken = Literal("POLYGON ((0 0, 1 1, 0 0))", datatype=WKT_DATATYPE)
    constant = geometry_literal(Polygon.box(0, 0, 2, 2))
    terms = [geometry_literal(Point(1, 1)), broken]
    outcomes = scalar_outcomes(function, terms, constant, var_first)
    assert outcomes[1] == "error"
    assert column_outcomes(function, terms, constant, var_first) == outcomes
    with pytest.raises(EvaluationError):
        function([broken, constant] if var_first else [constant, broken])


def test_invalid_geometry_drops_the_row_on_every_engine():
    """The invalid polygon in VALUES is dropped exactly like the unparsable
    ``POINT (1)``: the interpreted, vector and distributed engines all keep
    the one point inside the box instead of aborting the query."""
    store = GeoStore()
    store.bulk_load([(EX.f1, GEO.asWKT, geometry_literal(Point(1, 1)))])
    cells = ["POINT (1 1)", "POINT (1)", "POLYGON ((0 0, 1 1, 0 0))", "POINT (5 5)"]
    values = " ".join(f'"{wkt}"^^geo:wktLiteral' for wkt in cells)
    box = geometry_literal(Polygon.box(0, 0, 2, 2)).lexical
    text = (
        "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
        "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
        f"SELECT ?g WHERE {{ VALUES ?g {{ {values} }} "
        f'FILTER(geof:sfIntersects(?g, "{box}"^^geo:wktLiteral)) }}'
    )
    expected = [{Variable("g"): Literal("POINT (1 1)", datatype=WKT_DATATYPE)}]
    assert store.query(text, options=CompileOptions()) == expected
    assert store.query(text, options=CompileOptions(engine="vector")) == expected
    runtime = DistRuntime(store.graph, partitions=2, replication=1)
    assert runtime.query(text, registry=store.registry) == expected


def test_points_against_polygon_constant():
    function = REGISTRY.get(SF_INTERSECTS)
    terms = [geometry_literal(Point(x, 1.5)) for x in (0.5, 1.5, 2.0, 3.0, 4.5)]
    constant = geometry_literal(SQUARE_WITH_HOLE)
    assert column_outcomes(function, terms, constant, True) == [
        True, False, True, True, False
    ]
