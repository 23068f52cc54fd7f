"""Per-field irrigation advice, published as linked data.

Closes the A1 loop: water-availability maps + field boundaries become
actionable per-field advice, and the advice is published into a GeoStore
"available as linked data together with other geospatial layers ... and made
available to farmers".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.geometry import Polygon
from repro.geosparql.literals import geometry_literal
from repro.geosparql.store import GeoStore
from repro.rdf.namespace import GEO, RDF, Namespace
from repro.rdf.term import IRI, Literal
from repro.raster.grid import RasterGrid
from repro.raster.stats import polygon_window_mask

AGRI = Namespace("http://extremeearth.eu/agri#")


@dataclass(frozen=True)
class FieldAdvice:
    """Irrigation advice for one field."""

    field_id: str
    crop: int
    boundary: Polygon
    mean_availability: float  # fraction of soil capacity, 0..1
    demand_mm: float  # mean irrigation demand over the field
    irrigate: bool


def irrigation_advice(
    fields: Sequence[Tuple[Polygon, int]],
    availability: RasterGrid,
    demand: RasterGrid,
    irrigate_below: float = 0.45,
) -> List[FieldAdvice]:
    """Aggregate pixel maps to per-field advice.

    A field is advised to irrigate when its mean availability falls below
    ``irrigate_below``.
    """
    if not 0.0 < irrigate_below < 1.0:
        raise ReproError("irrigate_below must be in (0, 1)")
    advice: List[FieldAdvice] = []
    shape = (availability.height, availability.width)
    for index, (boundary, crop) in enumerate(fields):
        # Rasterized on the field's own pixel window, not the whole map.
        (row0, row1, col0, col1), mask = polygon_window_mask(
            boundary, availability.transform, shape
        )
        if not mask.any():
            continue
        mean_availability = float(
            availability.band(0)[row0:row1, col0:col1][mask].mean()
        )
        mean_demand = float(demand.band(0)[row0:row1, col0:col1][mask].mean())
        advice.append(
            FieldAdvice(
                field_id=f"field{index:05d}",
                crop=crop,
                boundary=boundary,
                mean_availability=mean_availability,
                demand_mm=mean_demand,
                irrigate=mean_availability < irrigate_below,
            )
        )
    return advice


def publish_advice(
    advice: Sequence[FieldAdvice], store: Optional[GeoStore] = None
) -> GeoStore:
    """Publish advice as linked data (GeoSPARQL feature pattern)."""
    if store is None:
        store = GeoStore()
    for item in advice:
        subject = IRI(f"http://extremeearth.eu/agri/field/{item.field_id}")
        geom_iri = IRI(subject.value + "/geom")
        store.add(subject, RDF.type, AGRI.Field)
        store.add(subject, AGRI.cropClass, Literal.from_python(item.crop))
        store.add(
            subject, AGRI.waterAvailability,
            Literal.from_python(round(item.mean_availability, 4)),
        )
        store.add(
            subject, AGRI.irrigationDemandMm,
            Literal.from_python(round(item.demand_mm, 2)),
        )
        store.add(subject, AGRI.irrigationAdvised, Literal.from_python(item.irrigate))
        store.add(subject, GEO.hasGeometry, geom_iri)
        store.add(geom_iri, GEO.asWKT, geometry_literal(item.boundary))
    return store
