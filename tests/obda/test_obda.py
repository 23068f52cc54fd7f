"""Ontop-spatial virtual store tests: rewriting, pushdown, and equivalence."""

import pytest

from repro.errors import ReproError
from repro.geometry import Point, Polygon
from repro.geosparql import GeoStore, geometry_literal
from repro.geotriples import ObjectMap, TriplesMap, transform_to_store
from repro.obda import Column, Database, Table, VirtualGeoStore
from repro.rdf.term import IRI, Literal, XSD_INTEGER
from repro.sparql import Variable

EX = "http://ex.org/"
PREFIXES = (
    "PREFIX ex: <http://ex.org/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
)


def field_mapping():
    return TriplesMap(
        subject_template=EX + "field/{id}",
        type_iri=EX + "Field",
        object_maps=[
            ObjectMap(predicate=EX + "crop", column="crop"),
            ObjectMap(predicate=EX + "areaHa", column="area", datatype=XSD_INTEGER),
            ObjectMap(predicate=EX + "geom", column="geometry", is_geometry=True),
        ],
    )


def owner_mapping():
    return TriplesMap(
        subject_template=EX + "owner/{id}",
        type_iri=EX + "Owner",
        object_maps=[
            ObjectMap(predicate=EX + "name", column="name"),
            ObjectMap(predicate=EX + "farms", template=EX + "field/{field_id}"),
        ],
    )


FIELD_ROWS = [
    {"id": 1, "crop": "wheat", "area": 12, "geometry": Polygon.box(0, 0, 100, 100)},
    {"id": 2, "crop": "maize", "area": 7, "geometry": Polygon.box(200, 0, 300, 100)},
    {"id": 3, "crop": "wheat", "area": 30, "geometry": Polygon.box(400, 0, 500, 100)},
    {"id": 4, "crop": "rye", "area": 5, "geometry": None},  # no geometry
]

OWNER_ROWS = [
    {"id": 10, "name": "alice", "field_id": 1},
    {"id": 11, "name": "bob", "field_id": 2},
    {"id": 12, "name": "carol", "field_id": 3},
]


@pytest.fixture
def virtual():
    db = Database()
    fields = db.create_table(
        "fields",
        [
            Column("id", "integer"),
            Column("crop", "string"),
            Column("area", "integer"),
            Column("geometry", "geometry"),
        ],
    )
    fields.insert_many(FIELD_ROWS)
    owners = db.create_table(
        "owners",
        [Column("id", "integer"), Column("name", "string"), Column("field_id", "integer")],
    )
    owners.insert_many(OWNER_ROWS)
    store = VirtualGeoStore(db)
    store.add_mapping("fields", field_mapping())
    store.add_mapping("owners", owner_mapping())
    return store


def values(result, name):
    return {s[Variable(name)] for s in result}


class TestRelational:
    def test_typed_inserts(self):
        table = Table("t", [Column("n", "integer"), Column("g", "geometry")])
        table.insert({"n": 1, "g": Point(0, 0)})
        with pytest.raises(ReproError):
            table.insert({"n": "text"})
        with pytest.raises(ReproError):
            table.insert({"n": 1, "extra": 2})
        with pytest.raises(ReproError):
            table.insert({"n": True})

    def test_scan_predicates(self):
        table = Table("t", [Column("n", "integer")])
        table.insert_many([{"n": i} for i in range(10)])
        assert len(list(table.scan([("n", ">=", 7)]))) == 3
        assert len(list(table.scan([("n", "=", 3)]))) == 1
        assert table.scan_count == 2

    def test_bbox_predicate(self):
        table = Table("t", [Column("g", "geometry")])
        table.insert_many([{"g": Point(0, 0)}, {"g": Point(100, 100)}, {"g": None}])
        from repro.geometry import BoundingBox

        hits = list(table.scan([("g", "bbox_intersects", BoundingBox(-1, -1, 1, 1))]))
        assert len(hits) == 1

    def test_predicate_validation(self):
        table = Table("t", [Column("n", "integer")])
        with pytest.raises(ReproError):
            list(table.scan([("missing", "=", 1)]))
        with pytest.raises(ReproError):
            list(table.scan([("n", "~", 1)]))

    def test_database(self):
        db = Database()
        db.create_table("a", [Column("x")])
        with pytest.raises(ReproError):
            db.create_table("a", [Column("x")])
        with pytest.raises(ReproError):
            db.table("b")
        assert db.table_names == ["a"]


class TestVirtualQueries:
    def test_nothing_materialised(self, virtual):
        assert virtual.triple_count == 0

    def test_simple_select(self, virtual):
        result = virtual.query(
            PREFIXES + "SELECT ?f ?c WHERE { ?f ex:crop ?c }"
        )
        assert values(result, "c") == {
            Literal("wheat"), Literal("maize"), Literal("rye"),
        }
        assert len(result) == 4

    def test_type_pattern(self, virtual):
        result = virtual.query(
            PREFIXES + "SELECT ?f WHERE { ?f rdf:type ex:Field }"
        )
        assert len(result) == 4

    def test_constant_object_pushed(self, virtual):
        result = virtual.query(
            PREFIXES + 'SELECT ?f WHERE { ?f ex:crop "wheat" }'
        )
        assert values(result, "f") == {IRI(EX + "field/1"), IRI(EX + "field/3")}

    def test_filter_pushdown_comparison(self, virtual):
        fields = virtual.database.table("fields")
        before = fields.rows_scanned
        result = virtual.query(
            PREFIXES + "SELECT ?f WHERE { ?f ex:areaHa ?a . FILTER (?a >= 10) }"
        )
        assert values(result, "f") == {IRI(EX + "field/1"), IRI(EX + "field/3")}
        assert fields.rows_scanned == before + len(FIELD_ROWS)

    def test_typed_literal_binding(self, virtual):
        result = virtual.query(
            PREFIXES + "SELECT ?a WHERE { <http://ex.org/field/2> ex:areaHa ?a }"
        )
        [solution] = result
        assert solution[Variable("a")] == Literal("7", datatype=XSD_INTEGER)

    def test_geometry_hop(self, virtual):
        result = virtual.query(
            PREFIXES
            + "SELECT ?f ?wkt WHERE { ?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt }"
        )
        # Field 4 has a NULL geometry: no virtual triples for it.
        assert len(result) == 3
        assert all(s[Variable("wkt")].datatype for s in result)

    def test_spatial_filter(self, virtual):
        window = geometry_literal(Polygon.box(150, -10, 350, 110))
        result = virtual.query(
            PREFIXES
            + "SELECT ?f WHERE { ?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt . "
            + f'FILTER (geof:sfIntersects(?wkt, "{window.lexical}"^^geo:wktLiteral)) }}'
        )
        assert values(result, "f") == {IRI(EX + "field/2")}

    def test_cross_table_join(self, virtual):
        result = virtual.query(
            PREFIXES
            + "SELECT ?n ?c WHERE { ?o ex:name ?n . ?o ex:farms ?f . ?f ex:crop ?c }"
        )
        pairs = {
            (str(s[Variable("n")]), str(s[Variable("c")])) for s in result
        }
        assert pairs == {("alice", "wheat"), ("bob", "maize"), ("carol", "wheat")}

    def test_join_with_spatial_and_scalar_filters(self, virtual):
        window = geometry_literal(Polygon.box(-10, -10, 600, 110))
        result = virtual.query(
            PREFIXES
            + "SELECT ?n WHERE { ?o ex:name ?n . ?o ex:farms ?f . "
            + "?f ex:areaHa ?a . ?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt . "
            + f'FILTER (geof:sfIntersects(?wkt, "{window.lexical}"^^geo:wktLiteral)) '
            + "FILTER (?a > 10) }"
        )
        assert values(result, "n") == {Literal("alice"), Literal("carol")}

    def test_distinct_and_limit(self, virtual):
        result = virtual.query(
            PREFIXES + "SELECT DISTINCT ?c WHERE { ?f ex:crop ?c } LIMIT 2"
        )
        assert len(result) == 2

    def test_order_by_desc_with_limit(self, virtual):
        result = virtual.query(
            PREFIXES + "SELECT ?f WHERE { ?f ex:areaHa ?a } ORDER BY DESC(?a) LIMIT 1"
        )
        assert result == [{Variable("f"): IRI(EX + "field/3")}]

    def test_aggregates(self, virtual):
        result = virtual.query(
            PREFIXES
            + "SELECT ?c (COUNT(?f) AS ?n) (SUM(?a) AS ?s) "
            "WHERE { ?f ex:crop ?c . ?f ex:areaHa ?a } GROUP BY ?c ORDER BY ?c"
        )
        assert [
            (str(s[Variable("c")]), int(str(s[Variable("n")])), int(str(s[Variable("s")])))
            for s in result
        ] == [("maize", 1, 7), ("rye", 1, 5), ("wheat", 2, 42)]

    def test_unmapped_predicate_rejected(self, virtual):
        with pytest.raises(ReproError):
            virtual.query(PREFIXES + "SELECT ?f WHERE { ?f ex:unknown ?x }")

    def test_variable_predicate_rejected(self, virtual):
        with pytest.raises(ReproError):
            virtual.query(PREFIXES + "SELECT ?f WHERE { ?f ?p ?o }")

    def test_optional_rejected(self, virtual):
        with pytest.raises(ReproError):
            virtual.query(
                PREFIXES + "SELECT ?f WHERE { OPTIONAL { ?f ex:crop ?c } }"
            )


class TestEquivalenceWithMaterialised:
    """The virtual store and a materialised GeoStore must agree."""

    QUERIES = [
        "SELECT ?f ?c WHERE { ?f ex:crop ?c }",
        'SELECT ?f WHERE { ?f ex:crop "wheat" . ?f ex:areaHa ?a . FILTER (?a > 20) }',
        "SELECT ?f ?wkt WHERE { ?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
        "SELECT ?n ?c WHERE { ?o ex:name ?n . ?o ex:farms ?f . ?f ex:crop ?c }",
    ]

    def materialised(self):
        store = transform_to_store(
            [dict(r) for r in FIELD_ROWS],
            TriplesMap(
                subject_template=EX + "field/{id}",
                type_iri=EX + "Field",
                object_maps=[
                    ObjectMap(predicate=EX + "crop", column="crop"),
                    ObjectMap(predicate=EX + "areaHa", column="area",
                              datatype=XSD_INTEGER),
                    ObjectMap(predicate=EX + "geom", column="geometry",
                              is_geometry=True),
                ],
            ),
        )
        transform_to_store([dict(r) for r in OWNER_ROWS], owner_mapping(), store=store)
        return store

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_equivalence(self, virtual, query_text):
        materialised = self.materialised()
        canonical = lambda sols: sorted(
            sorted((v.name, repr(t)) for v, t in s.items()) for s in sols
        )
        virtual_result = virtual.query(PREFIXES + query_text)
        material_result = materialised.query(PREFIXES + query_text)
        assert canonical(virtual_result) == canonical(material_result)

    def test_spatial_equivalence(self, virtual):
        materialised = self.materialised()
        window = geometry_literal(Polygon.box(0, 0, 450, 150))
        query_text = (
            "SELECT ?f WHERE { ?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt . "
            + f'FILTER (geof:sfIntersects(?wkt, "{window.lexical}"^^geo:wktLiteral)) }}'
        )
        assert values(virtual.query(PREFIXES + query_text), "f") == values(
            materialised.query(PREFIXES + query_text), "f"
        )
