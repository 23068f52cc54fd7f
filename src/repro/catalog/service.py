"""The semantic catalogue service.

Overload resilience (experiment E18): the catalogue optionally takes an
:class:`~repro.resilience.AdmissionController` guarding query entry (shed
queries raise the retryable :class:`~repro.errors.Overloaded`), and every
query accepts an optional :class:`~repro.resilience.Deadline` checked
around evaluation. Both default to off — the unguarded path is
byte-identical to the pre-E18 service.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.catalog import model
from repro.catalog.ingest import ingest_knowledge, ingest_products
from repro.errors import CatalogError
from repro.geometry import Geometry, Polygon
from repro.geosparql.literals import geometry_literal
from repro.geosparql.store import GeoStore
from repro.rdf.term import IRI, Literal
from repro.sparql import Variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.plan import PlanCache
    from repro.resilience.admission import AdmissionController
    from repro.resilience.deadline import Deadline

_PREFIXES = (
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
    "PREFIX eop: <http://extremeearth.eu/product#> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)


class SemanticCatalog:
    """A catalogue that answers both classic and knowledge queries.

    Classic search (bbox / time window / mission / product type) compiles to
    GeoSPARQL; knowledge queries run arbitrary SPARQL over the same store —
    "the knowledge hidden in Sentinel satellite images" is just more triples.
    """

    def __init__(
        self,
        store: Optional[GeoStore] = None,
        admission: Optional["AdmissionController"] = None,
        plan_cache: Optional["PlanCache"] = None,
    ):
        self.store = store if store is not None else GeoStore()
        self._admission = admission
        if plan_cache is not None:
            # The catalogue's queries all run through its store, so the
            # cache simply rides on it (keys are per-store, see PlanCache).
            self.store.plan_cache = plan_cache

    @property
    def plan_cache(self) -> Optional["PlanCache"]:
        return self.store.plan_cache

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def add_products(self, products) -> int:
        return ingest_products(self.store, products)

    def add_iceberg(
        self,
        iceberg_id: str,
        geometry: Geometry,
        observed_at: str,
        derived_from: Optional[IRI] = None,
    ) -> None:
        ingest_knowledge(
            self.store,
            f"http://extremeearth.eu/knowledge/iceberg/{iceberg_id}",
            model.ICEBERG,
            geometry,
            observed_at=observed_at,
            derived_from=derived_from,
        )

    def add_ice_region(
        self, region_id: str, name: str, geometry: Geometry, observed_at: str
    ) -> None:
        ingest_knowledge(
            self.store,
            f"http://extremeearth.eu/knowledge/region/{region_id}",
            model.ICE_REGION,
            geometry,
            observed_at=observed_at,
            properties=[(model.REGION_NAME, Literal(name))],
        )

    def add_crop_field(
        self, field_id: str, crop: str, geometry: Geometry
    ) -> None:
        ingest_knowledge(
            self.store,
            f"http://extremeearth.eu/knowledge/field/{field_id}",
            model.CROP_FIELD,
            geometry,
            properties=[(model.CROP_TYPE, Literal(crop))],
        )

    def add_content_summary(
        self, product: IRI, fractions: Dict[str, float]
    ) -> None:
        """Attach a class-composition summary to a product.

        ``fractions`` maps class names (e.g. "FIRST_YEAR_ICE") to their
        scene fraction — the per-product knowledge the C1 classifiers emit.
        """
        for class_name, fraction in fractions.items():
            if not 0.0 <= fraction <= 1.0:
                raise CatalogError(
                    f"content fraction for {class_name!r} out of [0, 1]: {fraction}"
                )
            node = IRI(f"{product.value}/content/{class_name}")
            self.store.add(product, model.HAS_CONTENT, node)
            self.store.add(node, model.CONTENT_CLASS, Literal(class_name))
            self.store.add(
                node, model.CONTENT_FRACTION, Literal.from_python(float(fraction))
            )

    def search_by_content(
        self, class_name: str, min_fraction: float = 0.0
    ) -> List[Tuple[IRI, float]]:
        """Products containing *class_name* above *min_fraction*, best first.

        The query classic catalogues cannot express: search by what is *in*
        the imagery, not by acquisition parameters.
        """
        solutions = self.query(
            "SELECT ?p ?fr WHERE { ?p eop:hasContent ?c . "
            f"?c eop:contentClass {Literal(class_name).n3()} . "
            "?c eop:contentFraction ?fr . "
            f"FILTER (?fr >= {min_fraction}) }} ORDER BY DESC(?fr)"
        )
        return [
            (solution[Variable("p")], float(solution[Variable("fr")].to_python()))
            for solution in solutions
        ]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> int:
        """Dump the catalogue to N-Triples; returns the triple count."""
        return self.store.save_ntriples(path)

    @classmethod
    def load(cls, path: str) -> "SemanticCatalog":
        """Restore a catalogue dump (spatial index rebuilt on load)."""
        return cls(store=GeoStore.from_ntriples(path))

    @property
    def triple_count(self) -> int:
        return len(self.store)

    # ------------------------------------------------------------------
    # Classic catalogue search
    # ------------------------------------------------------------------

    def search_products(
        self,
        bbox: Optional[Tuple[float, float, float, float]] = None,
        start_time: Optional[str] = None,
        end_time: Optional[str] = None,
        mission: Optional[str] = None,
        product_type: Optional[str] = None,
        deadline: Optional["Deadline"] = None,
        priority: int = 1,
    ) -> List[IRI]:
        """Search by the classic hub parameters; returns product IRIs."""
        patterns = ["?p rdf:type eop:Product ."]
        filters = []
        if mission is not None:
            patterns.append(f"?p eop:mission {Literal(mission).n3()} .")
        if product_type is not None:
            patterns.append(f"?p eop:productType {Literal(product_type).n3()} .")
        if start_time is not None or end_time is not None:
            patterns.append("?p eop:sensingTime ?t .")
            if start_time is not None:
                filters.append(f"STR(?t) >= {Literal(start_time).n3()}")
            if end_time is not None:
                filters.append(f"STR(?t) <= {Literal(end_time).n3()}")
        if bbox is not None:
            min_x, min_y, max_x, max_y = bbox
            window = geometry_literal(Polygon.box(min_x, min_y, max_x, max_y))
            patterns.append("?p geo:hasGeometry ?g . ?g geo:asWKT ?wkt .")
            filters.append(
                f'geof:sfIntersects(?wkt, "{window.lexical}"^^geo:wktLiteral)'
            )
        filter_text = " ".join(f"FILTER ({f})" for f in filters)
        query = (
            "SELECT DISTINCT ?p WHERE { "
            + " ".join(patterns)
            + " "
            + filter_text
            + " }"
        )
        solutions = self.query(query, deadline=deadline, priority=priority)
        return [s[Variable("p")] for s in solutions]

    # ------------------------------------------------------------------
    # Knowledge queries
    # ------------------------------------------------------------------

    def query(
        self,
        sparql: str,
        deadline: Optional["Deadline"] = None,
        priority: int = 1,
    ):
        """Run raw SPARQL (prefixes for geo/geof/eop/rdf are prepended).

        With an admission controller attached the query takes a ticket
        (classed by ``priority``) for the duration of evaluation; a
        ``deadline`` is checked before and after evaluation, so an
        exhausted budget fails with
        :class:`~repro.errors.TimeoutExceeded` instead of returning late.
        """
        if self._admission is None and deadline is None:
            return self.store.query(_PREFIXES + sparql)
        ticket = (
            self._admission.admit(priority=priority)
            if self._admission is not None
            else None
        )
        try:
            if deadline is not None:
                deadline.check("catalog.query")
            result = self.store.query(_PREFIXES + sparql)
            if deadline is not None:
                deadline.check("catalog.query")
            return result
        finally:
            if ticket is not None:
                ticket.release()

    def count_icebergs_embedded(self, region_name: str, year: int) -> int:
        """The paper's flagship query: icebergs embedded in a named ice
        region at its maximum extent in a given year.

        Two GeoSPARQL queries. The first takes the region's largest
        geometry observed that year by ``geof:area``; equal areas go to the
        lexically smallest WKT. ``geof:area`` errors on a point or a line,
        and an errored sort key orders after every value under ``DESC``, so
        such an observation ranks below every polygon. The second counts
        the icebergs observed that year whose geometry lies within that
        extent; the ``geof:sfWithin`` filter against a constant plants the
        R-tree candidate table.
        """
        in_year = f"FILTER (STRSTARTS(STR(?t), {Literal(str(year)).n3()})) "
        extents = self.query(
            "SELECT ?g WHERE { ?r rdf:type eop:IceRegion . "
            f"?r eop:regionName {Literal(region_name).n3()} . "
            "?r eop:observedAt ?t . ?r geo:hasGeometry ?geom . ?geom geo:asWKT ?g . "
            + in_year
            + "} ORDER BY DESC(geof:area(?g)) ASC(STR(?g)) LIMIT 1"
        )
        if not extents:
            raise CatalogError(
                f"no observations of region {region_name!r} in {year}"
            )
        extent = extents[0][Variable("g")]
        [count] = self.query(
            "SELECT (COUNT(DISTINCT ?b) AS ?n) WHERE { ?b rdf:type eop:Iceberg . "
            "?b eop:observedAt ?t . ?b geo:hasGeometry ?geom . ?geom geo:asWKT ?g . "
            + in_year
            + f"FILTER (geof:sfWithin(?g, {extent.n3()})) }}"
        )
        return int(count[Variable("n")].to_python())
