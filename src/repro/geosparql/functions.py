"""GeoSPARQL ``geof:`` filter functions.

Registers the simple-features topological functions and metric helpers into a
:class:`~repro.sparql.evaluator.FunctionRegistry` so any SPARQL query can use
them. Arguments must be ``geo:wktLiteral`` values (or terms convertible to
them); type errors surface as :class:`EvaluationError`, which SPARQL filter
semantics turn into "row dropped".

``sfIntersects``, ``sfWithin`` and ``sfContains`` also carry a column form,
``function.column(terms, constant, var_first) -> (values, errors)``: the
function over a whole decoded term column against one constant term, with
the variable first or second. It equals the scalar function cell for cell;
point cells against a ``Polygon`` constant go through one
:func:`~repro.geometry.predicates.points_in_polygon` call where the scalar
predicate is exactly ``point_in_polygon``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError, RDFError
from repro.geometry import Geometry, contains, disjoint, distance, intersects, within
from repro.geometry.predicates import points_in_polygon
from repro.geometry.primitives import BoundingBox, Point, Polygon
from repro.geosparql.literals import geometry_literal, literal_geometry
from repro.geosparql.temporal import register_temporal_functions
from repro.rdf.term import Literal, Term
from repro.sparql.evaluator import FunctionRegistry
from repro.sparql.functions import EvaluationError, Value

GEOF = "http://www.opengis.net/def/function/geosparql/"

SF_INTERSECTS = GEOF + "sfIntersects"
SF_CONTAINS = GEOF + "sfContains"
SF_WITHIN = GEOF + "sfWithin"
SF_DISJOINT = GEOF + "sfDisjoint"
DISTANCE = GEOF + "distance"
ENVELOPE = GEOF + "envelope"
AREA = GEOF + "area"

# Relations the spatial index can pre-filter: candidates from a bbox probe are
# a superset of true matches. sfDisjoint is deliberately absent.
INDEXABLE_RELATIONS = frozenset({SF_INTERSECTS, SF_CONTAINS, SF_WITHIN})


def _geometry_arg(value: Value, function: str) -> Geometry:
    # GeometryError covers WKT that does not parse and WKT that parses but
    # builds no valid geometry (a ring of fewer than 3 distinct vertices):
    # either way the argument is a type error, and the row is dropped.
    try:
        return literal_geometry(value)  # type: ignore[arg-type]
    except (RDFError, GeometryError) as exc:
        raise EvaluationError(f"{function}: {exc}") from exc


def _binary(name: str, predicate, kernel_sides: Tuple[bool, ...] = ()):
    """The scalar function; with *kernel_sides*, also its column form.

    *kernel_sides* lists the ``var_first`` values for which ``predicate`` on
    a Point and a Polygon is exactly ``point_in_polygon(point, polygon)``.
    """
    def geo_function(args: List[Value]) -> bool:
        if len(args) != 2:
            raise EvaluationError(f"{name} takes 2 arguments, got {len(args)}")
        a = _geometry_arg(args[0], name)
        b = _geometry_arg(args[1], name)
        return predicate(a, b)

    def column(
        terms: Sequence[Optional[Term]], constant: Term, var_first: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The function per cell of *terms* (None: unbound) against
        *constant*: bool values and the cells that raised EvaluationError."""
        values = np.zeros(len(terms), dtype=bool)
        errors = np.zeros(len(terms), dtype=bool)
        polygon = _polygon(constant) if var_first in kernel_sides else None
        rows, xs, ys = [], [], []
        for row, term in enumerate(terms):
            if term is None:
                errors[row] = True
                continue
            try:
                if polygon is None:
                    values[row] = geo_function(
                        [term, constant] if var_first else [constant, term]
                    )
                    continue
                geometry = _geometry_arg(term, name)
            except EvaluationError:
                errors[row] = True
                continue
            if isinstance(geometry, Point):
                rows.append(row)
                xs.append(geometry.x)
                ys.append(geometry.y)
            else:
                values[row] = (
                    predicate(geometry, polygon)
                    if var_first
                    else predicate(polygon, geometry)
                )
        if rows:
            values[rows] = points_in_polygon(xs, ys, polygon)
        return values, errors

    if kernel_sides:
        geo_function.column = column
    return geo_function


def _polygon(term: Term) -> Optional[Polygon]:
    """*term*'s geometry if it is a Polygon; None sends every cell through
    the scalar function, which then meets any parse error itself."""
    try:
        geometry = literal_geometry(term)
    except (RDFError, GeometryError):
        return None
    return geometry if isinstance(geometry, Polygon) else None


def _distance(args: List[Value]) -> float:
    if len(args) != 2:
        raise EvaluationError(f"geof:distance takes 2 arguments, got {len(args)}")
    a = _geometry_arg(args[0], "geof:distance")
    b = _geometry_arg(args[1], "geof:distance")
    return distance(a, b)


def _envelope(args: List[Value]) -> Literal:
    if len(args) != 1:
        raise EvaluationError("geof:envelope takes 1 argument")
    geometry = _geometry_arg(args[0], "geof:envelope")
    box: BoundingBox = geometry.bbox
    if box.width == 0 or box.height == 0:
        # Degenerate envelope: widen infinitesimally so it stays a polygon.
        box = box.expand(1e-9)
    return geometry_literal(Polygon.box(box.min_x, box.min_y, box.max_x, box.max_y))


def _area(args: List[Value]) -> float:
    if len(args) != 1:
        raise EvaluationError("geof:area takes 1 argument")
    geometry = _geometry_arg(args[0], "geof:area")
    area = getattr(geometry, "area", None)
    if area is None:
        raise EvaluationError("geof:area requires an areal geometry")
    return area


def geo_function_registry() -> FunctionRegistry:
    """A fresh registry with all ``geof:`` *and* ``strdf:`` temporal
    functions installed (Strabon is a spatiotemporal store)."""
    registry = FunctionRegistry()
    # Point-vs-polygon reduces to point_in_polygon for sfIntersects either
    # way round, sfWithin(?g, C) and sfContains(C, ?g).
    registry.register(
        SF_INTERSECTS, _binary("geof:sfIntersects", intersects, (True, False))
    )
    registry.register(SF_CONTAINS, _binary("geof:sfContains", contains, (False,)))
    registry.register(SF_WITHIN, _binary("geof:sfWithin", within, (True,)))
    registry.register(SF_DISJOINT, _binary("geof:sfDisjoint", disjoint))
    registry.register(DISTANCE, _distance)
    registry.register(ENVELOPE, _envelope)
    registry.register(AREA, _area)
    register_temporal_functions(registry)
    return registry
