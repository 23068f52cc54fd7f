"""Property test: on spatial FILTERs the vector engine equals the
interpreted engine, on the indexed and on the naive store.

Random stores mix points, boxes, concave polygons, polygons with holes and
lines on a half-unit grid, so points on edges and vertices are common.
Random FILTERs use the three indexable relations in both argument orders
(the R-tree plants candidates and the exact test refines them on columns)
and non-indexable forms: sfDisjoint, negation, a disjunction with a
non-spatial test, two geometry variables, and a geometry a VALUES block
supplies. Some queries add a second indexable FILTER on a second geometry
variable, or put the whole group in a UNION branch or an OPTIONAL group.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import LineString, MultiPolygon, Point, Polygon
from repro.geosparql import GeoStore, NaiveGeoStore, geometry_literal
from repro.rdf import GEO, Namespace
from repro.rdf.term import Literal
from repro.sparql import CompileOptions

EX = Namespace("http://ex.org/")
PREFIXES = (
    "PREFIX ex: <http://ex.org/> "
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
)
ENGINES = [CompileOptions(), CompileOptions(engine="vector")]

half = st.integers(min_value=0, max_value=12).map(lambda i: i * 0.5)
points = st.builds(Point, half, half)


@st.composite
def boxes(draw):
    x0, y0 = draw(half), draw(half)
    return Polygon.box(x0, y0, x0 + draw(st.sampled_from([0.5, 1.0, 2.5])),
                       y0 + draw(st.sampled_from([0.5, 1.0, 2.5])))


@st.composite
def concave(draw):
    x, y = draw(half), draw(half)
    return Polygon([(x, y), (x + 3, y), (x + 3, y + 3), (x + 1.5, y + 1), (x, y + 3)])


@st.composite
def holed(draw):
    x, y = draw(half), draw(half)
    return Polygon(
        [(x, y), (x + 4, y), (x + 4, y + 4), (x, y + 4)],
        [[(x + 1, y + 1), (x + 2, y + 1), (x + 2, y + 2), (x + 1, y + 2)]],
    )


lines = st.builds(lambda a, b: LineString([(a.x, a.y), (b.x + 0.5, b.y)]), points, points)
geometries = st.one_of(points, points, points, boxes(), concave(), holed(), lines)
constants = st.one_of(
    boxes(), boxes(), concave(), holed(), points,
    st.builds(lambda a, b: MultiPolygon([a, b]), boxes(), boxes()),
)


@st.composite
def stores(draw):
    features = draw(st.lists(
        st.tuples(geometries, st.none() | st.integers(min_value=0, max_value=9)),
        min_size=1, max_size=12,
    ))
    triples = []
    for i, (geometry, value) in enumerate(features):
        triples.append((EX[f"f{i}"], GEO.asWKT, geometry_literal(geometry)))
        if value is not None:
            triples.append((EX[f"f{i}"], EX.val, Literal.from_python(value)))
    return triples


def wkt(geometry):
    return f'"{geometry_literal(geometry).lexical}"^^geo:wktLiteral'


@st.composite
def spatial_filters(draw):
    relation = draw(st.sampled_from(["sfIntersects", "sfWithin", "sfContains"]))
    constant = wkt(draw(constants))
    call = draw(st.sampled_from([
        f"geof:{relation}(?g, {constant})",
        f"geof:{relation}({constant}, ?g)",
    ]))
    form = draw(st.sampled_from(
        ["plain", "plain", "plain", "disjoint", "not", "or", "and", "pair"]
    ))
    if form == "disjoint":
        return f"FILTER(geof:sfDisjoint(?g, {constant}))", False
    if form == "not":
        return f"FILTER(!{call})", False
    if form == "or":
        return f"FILTER({call} || ?v > 6)", True
    if form == "and":
        return f"FILTER({call} && ?v < 5)", True
    if form == "pair":
        return f"FILTER(geof:{relation}(?g, ?h))", False
    return f"FILTER({call})", False


@st.composite
def spatial_queries(draw):
    spatial, needs_value = draw(spatial_filters())
    parts = ["?f geo:asWKT ?g ."]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        # A second indexable FILTER, on a second geometry variable.
        relation = draw(st.sampled_from(["sfIntersects", "sfWithin", "sfContains"]))
        spatial += f" FILTER(geof:{relation}(?h, {wkt(draw(constants))}))"
    if "?h" in spatial:
        parts.append("?e geo:asWKT ?h .")
    value = draw(st.sampled_from(["none", "join", "optional"]))
    if needs_value and value == "none":
        value = "join"
    if value == "join":
        parts.append("?f ex:val ?v .")
    elif value == "optional":
        parts.append("OPTIONAL { ?f ex:val ?v }")
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        # The geometry comes from the query, not the store: no rewrite.
        parts = [
            "VALUES ?g { " + " ".join(wkt(g) for g in draw(
                st.lists(geometries, min_size=1, max_size=3)
            )) + " }"
        ] + parts[1:]
    parts.append(spatial)
    body = " ".join(parts)
    place = draw(st.sampled_from(["group", "group", "group", "union", "optional"]))
    if place == "union":
        # The FILTER sits in one UNION branch; the other never binds ?g.
        body = "{ " + body + " } UNION { ?f ex:val ?v }"
    elif place == "optional":
        body = "?f ex:val ?w . OPTIONAL { " + body + " }"
    return PREFIXES + "SELECT * WHERE { " + body + " }"


def canonical(rows):
    return sorted(sorted((v.name, str(t)) for v, t in row.items()) for row in rows)


@given(triples=stores(), text=spatial_queries())
@settings(max_examples=250, deadline=None)
def test_vector_equals_interpreted_on_both_stores(triples, text):
    answers = []
    for store_class in (GeoStore, NaiveGeoStore):
        store = store_class()
        store.add_all(triples)
        for options in ENGINES:
            answers.append(canonical(store.query(text, options=options)))
    assert answers[1] == answers[0], ("GeoStore", text)
    assert answers[3] == answers[2], ("NaiveGeoStore", text)
    assert answers[0] == answers[2], text
