"""The virtual geospatial RDF store: SPARQL answered by query rewriting.

A :class:`VirtualGeoStore` holds no triples. SPARQL BGPs are grouped by
subject, each group is matched to a registered (table, mapping) pair, column
comparisons and spatial bounding-box filters are pushed into the table scan,
and each group's rows become one solution list. The GeoSPARQL two-hop
pattern (``?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt``) is folded into the
feature group, mirroring how Ontop-spatial virtualises geometry tables.

The store only unfolds and scans: the per-group solution lists are joined,
filtered and finished by :func:`~repro.sparql.pipeline.finish_solutions`,
the same vector-engine code that answers a materialised store.

Supported query form: any SELECT — DISTINCT, ORDER BY, LIMIT/OFFSET,
aggregates — whose WHERE is a flat ``{ BGP . FILTER ... }`` with constant
predicates, the fragment Ontop's core rewriting covers. OPTIONAL, UNION,
BIND and variable predicates raise :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.errors import MappingError, ReproError
from repro.geosparql.functions import INDEXABLE_RELATIONS, geo_function_registry
from repro.geosparql.literals import geometry_literal, is_geometry_literal, literal_geometry
from repro.geotriples.mapping import ObjectMap, TriplesMap, expand_template, template_variables
from repro.obda.relational import Database, Predicate, Table
from repro.rdf.namespace import GEO, RDF
from repro.rdf.term import IRI, Literal, Term
from repro.sparql.ast import (
    BinaryOp,
    Expression,
    FunctionCall,
    SelectQuery,
    TermExpr,
    TriplePattern,
    Variable,
    VarExpr,
)
from repro.sparql.evaluator import Bindings
from repro.sparql.parser import parse_query
from repro.sparql.pipeline import finish_solutions, flat_bgp, parse_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.plan import PlanCache

_RDF_TYPE = RDF.type
_HAS_GEOMETRY = GEO.hasGeometry
_AS_WKT = GEO.asWKT


@dataclass
class _MappedSource:
    table: Table
    mapping: TriplesMap
    by_predicate: Dict[str, ObjectMap] = field(init=False)

    def __post_init__(self) -> None:
        self.by_predicate = {m.predicate: m for m in self.mapping.object_maps}

    @property
    def geometry_map(self) -> Optional[ObjectMap]:
        maps = self.mapping.geometry_maps
        return maps[0] if maps else None


@dataclass
class _SubjectGroup:
    """All patterns sharing one subject (plus folded geometry-hop patterns)."""

    subject: Union[Variable, Term]
    type_object: Optional[Term] = None
    type_variable: Optional[Variable] = None
    # predicate IRI -> object position (Variable or Term)
    properties: List[Tuple[str, Union[Variable, Term]]] = field(default_factory=list)
    geometry_node: Optional[Union[Variable, Term]] = None
    wkt_object: Optional[Union[Variable, Term]] = None


class VirtualGeoStore:
    """Answers (Geo)SPARQL over relational tables without materialising RDF."""

    def __init__(
        self,
        database: Database,
        plan_cache: Optional["PlanCache"] = None,
    ):
        self.database = database
        self._sources: List[_MappedSource] = []
        self._registry = geo_function_registry()
        #: Optional shared :class:`~repro.cache.PlanCache`. Rewriting plans
        #: (parse, extraction, subject grouping) are pure functions of the
        #: query text; table rows are always scanned live, so results stay
        #: fresh. The key still includes the mapping count so a new
        #: ``add_mapping`` can never meet a stale plan.
        self.plan_cache = plan_cache

    def add_mapping(self, table_name: str, mapping: TriplesMap) -> None:
        """Expose *table_name* through *mapping*."""
        self._sources.append(_MappedSource(self.database.table(table_name), mapping))

    @property
    def triple_count(self) -> int:
        """Always zero: nothing is materialised. (The point.)"""
        return 0

    # ------------------------------------------------------------------
    # Query entry
    # ------------------------------------------------------------------

    def query(self, query: Union[str, SelectQuery]) -> List[Bindings]:
        text: Optional[str] = None
        if isinstance(query, str):
            text = query
            if self.plan_cache is not None:
                query = parse_text(self.plan_cache, text).ast
            else:
                query = parse_query(text)
        if not isinstance(query, SelectQuery):
            raise ReproError("VirtualGeoStore supports SELECT queries only")
        if self.plan_cache is not None and text is not None:
            filters, groups = self.plan_cache.plan(
                self,
                text,
                None,
                len(self._sources),
                lambda: self._rewrite(query),
            )
        else:
            filters, groups = self._rewrite(query)
        return finish_solutions(
            query,
            [self._evaluate_group(g, filters) for g in groups],
            filters,
            self._registry,
        )

    def _rewrite(
        self, query: SelectQuery
    ) -> Tuple[List[Expression], List[_SubjectGroup]]:
        """The cacheable rewrite: pattern extraction + subject grouping."""
        patterns, filters = flat_bgp(query, ReproError)
        return filters, self._group_by_subject(patterns)

    # ------------------------------------------------------------------
    # Grouping (with geometry-hop folding)
    # ------------------------------------------------------------------

    def _group_by_subject(
        self, patterns: Sequence[TriplePattern]
    ) -> List[_SubjectGroup]:
        groups: Dict[Any, _SubjectGroup] = {}
        wkt_patterns: List[TriplePattern] = []
        for pattern in patterns:
            if isinstance(pattern.predicate, Variable):
                raise ReproError("variable predicates are not rewritable")
            if pattern.predicate == _AS_WKT:
                wkt_patterns.append(pattern)
                continue
            group = groups.setdefault(
                pattern.subject, _SubjectGroup(subject=pattern.subject)
            )
            if pattern.predicate == _RDF_TYPE:
                if isinstance(pattern.object, Variable):
                    group.type_variable = pattern.object
                else:
                    group.type_object = pattern.object
            elif pattern.predicate == _HAS_GEOMETRY:
                group.geometry_node = pattern.object
            else:
                group.properties.append((pattern.predicate.value, pattern.object))

        # Fold `?g geo:asWKT ?wkt` onto the feature group owning ?g.
        for pattern in wkt_patterns:
            owner = next(
                (
                    g
                    for g in groups.values()
                    if g.geometry_node is not None
                    and g.geometry_node == pattern.subject
                ),
                None,
            )
            if owner is None:
                raise ReproError(
                    "geo:asWKT subject is not a geo:hasGeometry object; "
                    "cannot fold the geometry hop"
                )
            owner.wkt_object = pattern.object
        return list(groups.values())

    # ------------------------------------------------------------------
    # Group evaluation
    # ------------------------------------------------------------------

    def _evaluate_group(
        self, group: _SubjectGroup, filters: Sequence[Expression]
    ) -> List[Bindings]:
        source = self._match_source(group)
        subject_vars = template_variables(source.mapping.subject_template)
        solutions: List[Bindings] = []
        for row in source.table.scan(
            self._pushable_predicates(group, source, filters)
        ):
            bindings = self._row_bindings(group, source, row, subject_vars)
            if bindings is not None:
                solutions.append(bindings)
        return solutions

    def _match_source(self, group: _SubjectGroup) -> _MappedSource:
        candidates = []
        for source in self._sources:
            if group.type_object is not None and (
                source.mapping.type_iri is None
                or IRI(source.mapping.type_iri) != group.type_object
            ):
                continue
            if (
                group.geometry_node is not None or group.wkt_object is not None
            ) and source.geometry_map is None:
                continue
            if all(p in source.by_predicate for p, _ in group.properties):
                candidates.append(source)
        if not candidates:
            raise ReproError(
                f"no mapping covers subject group {group.subject!r} "
                f"(predicates {[p for p, _ in group.properties]})"
            )
        if len(candidates) > 1:
            raise ReproError(
                f"ambiguous mappings for subject group {group.subject!r}; "
                "add an rdf:type pattern to disambiguate"
            )
        return candidates[0]

    def _pushable_predicates(
        self,
        group: _SubjectGroup,
        source: _MappedSource,
        filters: Sequence[Expression],
    ) -> List[Predicate]:
        """Scan predicates: what the table can test before a row is mapped.
        Every filter still runs on the joined answer."""
        predicates: List[Predicate] = []

        # Constant objects on column-backed predicates become = predicates.
        for predicate_iri, obj in group.properties:
            object_map = source.by_predicate[predicate_iri]
            if isinstance(obj, Variable) or object_map.column is None:
                continue
            if isinstance(obj, Literal):
                predicates.append((object_map.column, "=", obj.to_python()))

        # Single-variable comparison filters push when the variable maps to
        # a column of this group.
        column_of: Dict[Variable, str] = {}
        for predicate_iri, obj in group.properties:
            object_map = source.by_predicate[predicate_iri]
            if isinstance(obj, Variable) and object_map.column is not None:
                column_of[obj] = object_map.column
        for expression in filters:
            pushed = _push_comparison(expression, column_of)
            if pushed is not None:
                predicates.append(pushed)

        # Spatial filters on this group's wkt variable push as bbox tests.
        geometry_map = source.geometry_map
        if geometry_map is not None and isinstance(group.wkt_object, Variable):
            for expression in filters:
                bbox = _spatial_bbox(expression, group.wkt_object)
                if bbox is not None:
                    predicates.append((geometry_map.column, "bbox_intersects", bbox))
        return predicates

    def _row_bindings(
        self,
        group: _SubjectGroup,
        source: _MappedSource,
        row: Dict[str, Any],
        subject_vars: Sequence[str],
    ) -> Optional[Bindings]:
        if any(row.get(v) is None for v in subject_vars):
            return None
        subject = IRI(expand_template(source.mapping.subject_template, row))
        bindings: Bindings = {}
        if isinstance(group.subject, Variable):
            bindings[group.subject] = subject
        elif group.subject != subject:
            return None
        if group.type_variable is not None:
            if source.mapping.type_iri is None:
                return None
            bindings[group.type_variable] = IRI(source.mapping.type_iri)

        for predicate_iri, obj in group.properties:
            term = self._object_term(source.by_predicate[predicate_iri], row)
            if term is None:
                return None  # null column: this row emits no such triple
            if isinstance(obj, Variable):
                existing = bindings.get(obj)
                if existing is not None and existing != term:
                    return None
                bindings[obj] = term
            elif obj != term:
                return None

        if group.geometry_node is not None or group.wkt_object is not None:
            geometry_map = source.geometry_map
            if geometry_map is None:
                return None
            geometry = row.get(geometry_map.column)
            if geometry is None:
                return None
            geometry_iri = IRI(subject.value + "/geom")
            if isinstance(group.geometry_node, Variable):
                bindings[group.geometry_node] = geometry_iri
            elif group.geometry_node is not None and group.geometry_node != geometry_iri:
                return None
            if isinstance(group.wkt_object, Variable):
                bindings[group.wkt_object] = geometry_literal(geometry)
            elif group.wkt_object is not None and group.wkt_object != geometry_literal(geometry):
                return None
        return bindings

    @staticmethod
    def _object_term(object_map: ObjectMap, row: Dict[str, Any]) -> Optional[Term]:
        if object_map.is_geometry:
            raise ReproError(
                "geometry object maps are exposed via geo:hasGeometry/geo:asWKT"
            )
        if object_map.constant is not None:
            if object_map.constant.startswith("http"):
                return IRI(object_map.constant)
            return Literal(object_map.constant)
        if object_map.template is not None:
            try:
                return IRI(expand_template(object_map.template, row))
            except MappingError:
                return None
        value = row.get(object_map.column)
        if value is None:
            return None
        if object_map.datatype is not None:
            return Literal(str(value), datatype=object_map.datatype)
        if object_map.language is not None:
            return Literal(str(value), language=object_map.language)
        if isinstance(value, (bool, int, float)):
            return Literal.from_python(value)
        return Literal(str(value))


# ---------------------------------------------------------------------------
# Filter pushdown helpers
# ---------------------------------------------------------------------------

def _push_comparison(
    expression: Expression, column_of: Dict[Variable, str]
) -> Optional[Predicate]:
    """``?v op constant`` -> (column, op, python value), if ?v is mapped."""
    if not isinstance(expression, BinaryOp):
        return None
    if expression.operator not in ("=", "!=", "<", "<=", ">", ">="):
        return None
    left, right = expression.left, expression.right
    if isinstance(left, VarExpr) and isinstance(right, TermExpr):
        variable, term = left.variable, right.term
        operator = expression.operator
    elif isinstance(left, TermExpr) and isinstance(right, VarExpr):
        variable, term = right.variable, left.term
        operator = _flip(expression.operator)
    else:
        return None
    column = column_of.get(variable)
    if column is None or not isinstance(term, Literal) or is_geometry_literal(term):
        return None
    return (column, operator, term.to_python())


def _flip(operator: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[operator]


def _spatial_bbox(expression: Expression, wkt_variable: Variable):
    """Bounding box of an indexable spatial filter over *wkt_variable*."""
    if not isinstance(expression, FunctionCall):
        return None
    if expression.name not in INDEXABLE_RELATIONS or len(expression.args) != 2:
        return None
    first, second = expression.args
    constant = None
    if isinstance(first, VarExpr) and first.variable == wkt_variable and isinstance(second, TermExpr):
        constant = second.term
    elif isinstance(second, VarExpr) and second.variable == wkt_variable and isinstance(first, TermExpr):
        constant = first.term
    if constant is None or not is_geometry_literal(constant):
        return None
    return literal_geometry(constant).bbox
