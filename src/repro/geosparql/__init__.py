"""GeoSPARQL layer: the "Strabon" of the stack.

Adds geospatial semantics on top of :mod:`repro.rdf` and :mod:`repro.sparql`:

* ``geo:wktLiteral`` geometry literals (:mod:`repro.geosparql.literals`)
* the ``geof:`` simple-features filter functions
  (:mod:`repro.geosparql.functions`)
* :class:`~repro.geosparql.store.GeoStore` — a triple store that maintains an
  R-tree over geometry literals and rewrites spatial filters into index-backed
  candidate tables, plus :class:`~repro.geosparql.store.NaiveGeoStore`, the
  scan-everything baseline used by experiment E2.

The paper's motivating claim (Section 1): "the state-of-the art geospatial and
temporal RDF store Strabon ... can only handle up to 100 GBs of point data and
still be able to answer simple geospatial queries (selections over a
rectangular area) efficiently (in a few seconds)". E2/E3 reproduce the shape
of that behaviour and the multipolygon degradation.
"""

from repro.geosparql.literals import (
    WKT_DATATYPE,
    geometry_literal,
    literal_geometry,
    is_geometry_literal,
)
from repro.geosparql.functions import geo_function_registry
from repro.geosparql.store import GeoStore, NaiveGeoStore
from repro.geosparql.temporal import (
    IntervalIndex,
    PERIOD_DATATYPE,
    is_temporal_literal,
    literal_period,
    period_literal,
)

__all__ = [
    "GeoStore",
    "IntervalIndex",
    "NaiveGeoStore",
    "PERIOD_DATATYPE",
    "WKT_DATATYPE",
    "geo_function_registry",
    "geometry_literal",
    "is_geometry_literal",
    "is_temporal_literal",
    "literal_geometry",
    "literal_period",
    "period_literal",
]
