"""Temporal snapshots: maps of time-evolving linked data."""

from __future__ import annotations

from datetime import datetime
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.geometry import BoundingBox, Geometry, Polygon
from repro.geosparql.literals import is_geometry_literal, literal_geometry
from repro.geosparql.store import GeoStore
from repro.geosparql.temporal import is_temporal_literal, literal_period, period_overlaps
from repro.sextant.map import SextantMap
from repro.sextant.style import LayerStyle
from repro.sparql import Variable


def temporal_frames(
    store: GeoStore,
    query: str,
    instants: Sequence[str],
    geometry_variable: str = "wkt",
    time_variable: str = "t",
    label_variable: Optional[str] = None,
    style: Optional[LayerStyle] = None,
    width: int = 600,
    height: int = 600,
    window_days: float = 0.0,
) -> List[Tuple[str, str]]:
    """Render one SVG frame per instant showing the features valid then.

    The query must bind ``geometry_variable`` to a wktLiteral and
    ``time_variable`` to a temporal literal (period or instant). A frame at
    instant *i* shows features whose validity overlaps ``[i, i +
    window_days)`` — use a non-zero window when features carry instant
    timestamps (acquisitions) rather than periods. Returns
    ``[(instant, svg), ...]``; all frames share the same extent so the
    sequence animates cleanly.
    """
    if not instants:
        raise ReproError("need at least one instant")
    if window_days < 0:
        raise ReproError("window_days must be non-negative")
    solutions = store.query(query)
    if isinstance(solutions, bool):
        raise ReproError("temporal_frames needs a SELECT query")

    geometry_var = Variable(geometry_variable)
    time_var = Variable(time_variable)
    label_var = Variable(label_variable) if label_variable else None
    features: List[Tuple[Geometry, Tuple[datetime, datetime], str]] = []
    for solution in solutions:
        geometry_term = solution.get(geometry_var)
        time_term = solution.get(time_var)
        if geometry_term is None or time_term is None:
            continue
        if not is_geometry_literal(geometry_term) or not is_temporal_literal(time_term):
            continue
        label = ""
        if label_var is not None and label_var in solution:
            label = str(solution[label_var])
        features.append(
            (literal_geometry(geometry_term), literal_period(time_term), label)
        )
    if not features:
        raise ReproError("query returned no spatiotemporal bindings")

    # Shared extent over all features, so frames align.

    extent = BoundingBox.union_all(g.bbox for g, _, _ in features)

    from datetime import timedelta

    frames: List[Tuple[str, str]] = []
    for instant_text in instants:
        instant = datetime.fromisoformat(instant_text)
        frame_period = (instant, instant + timedelta(days=window_days))
        valid = [
            (geometry, label)
            for geometry, period, label in features
            if period_overlaps(frame_period, period)
        ]
        frame_map = SextantMap(width=width, height=height, title=instant_text)
        if valid:
            frame_map.add_vector_layer("valid", valid, style=style)
            frames.append((instant_text, frame_map.render(extent)))
        else:
            # An empty frame: render just the canvas at the shared extent.
            empty = SextantMap(width=width, height=height, title=instant_text)
            empty.add_vector_layer(
                "extent",
                [_extent_outline(extent)],
                style=LayerStyle(fill="none", fill_opacity=0.0, stroke="#dddddd"),
                legend=False,
            )
            frames.append((instant_text, empty.render(extent)))
    return frames


def _extent_outline(extent) -> Geometry:
    if extent.width == 0 or extent.height == 0:
        extent = extent.expand(max(extent.width, extent.height, 1.0) * 0.05)
    return Polygon.box(extent.min_x, extent.min_y, extent.max_x, extent.max_y)
