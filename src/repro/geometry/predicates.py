"""Spatial predicates over the geometry primitives.

The predicate set mirrors the GeoSPARQL simple-features functions the
ExtremeEarth query layer exposes (``geof:sfIntersects``, ``sfContains``,
``sfWithin``, ``geof:distance``). Semantics follow OGC simple features:
boundaries count as part of a geometry, so a point on a polygon edge is
contained by the polygon and touching geometries intersect.

All functions accept any pairing of Point / LineString / Polygon and their
Multi* counterparts.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.primitives import (
    Geometry,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    _MultiGeometry,
)

Coordinate = Tuple[float, float]
_EPS = 1e-12


# ---------------------------------------------------------------------------
# Segment-level helpers
# ---------------------------------------------------------------------------

def _orientation(p: Coordinate, q: Coordinate, r: Coordinate) -> int:
    """-1 clockwise, 0 collinear, +1 counter-clockwise (with tolerance)."""
    value = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    scale = max(
        abs(q[0] - p[0]), abs(q[1] - p[1]), abs(r[0] - p[0]), abs(r[1] - p[1]), 1.0
    )
    if abs(value) <= _EPS * scale * scale:
        return 0
    return 1 if value > 0 else -1


def _on_segment(p: Coordinate, q: Coordinate, r: Coordinate) -> bool:
    """Assuming p, q, r collinear: is q within the box spanned by p..r?"""
    return (
        min(p[0], r[0]) - _EPS <= q[0] <= max(p[0], r[0]) + _EPS
        and min(p[1], r[1]) - _EPS <= q[1] <= max(p[1], r[1]) + _EPS
    )


def segments_intersect(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> bool:
    """True if closed segments a1-a2 and b1-b2 share at least one point."""
    o1 = _orientation(a1, a2, b1)
    o2 = _orientation(a1, a2, b2)
    o3 = _orientation(b1, b2, a1)
    o4 = _orientation(b1, b2, a2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(a1, b1, a2):
        return True
    if o2 == 0 and _on_segment(a1, b2, a2):
        return True
    if o3 == 0 and _on_segment(b1, a1, b2):
        return True
    if o4 == 0 and _on_segment(b1, a2, b2):
        return True
    return False


def point_segment_distance(p: Coordinate, a: Coordinate, b: Coordinate) -> float:
    """Euclidean distance from point *p* to closed segment a-b."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length_sq))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def segment_segment_distance(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> float:
    if segments_intersect(a1, a2, b1, b2):
        return 0.0
    return min(
        point_segment_distance(a1, b1, b2),
        point_segment_distance(a2, b1, b2),
        point_segment_distance(b1, a1, a2),
        point_segment_distance(b2, a1, a2),
    )


# ---------------------------------------------------------------------------
# Ring / polygon helpers
# ---------------------------------------------------------------------------

def point_on_ring(x: float, y: float, ring: Sequence[Coordinate]) -> bool:
    p = (x, y)
    for a, b in zip(ring, ring[1:]):
        if _orientation(a, b, p) == 0 and _on_segment(a, p, b):
            return True
    return False


def point_in_ring(x: float, y: float, ring: Sequence[Coordinate]) -> bool:
    """Ray casting: strictly-inside test (boundary handled by caller)."""
    inside = False
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def point_in_polygon(point: Point, polygon: Polygon) -> bool:
    """OGC containment: interior or boundary of the polygon."""
    if not polygon.bbox.contains_point(point.x, point.y):
        return False
    if point_on_ring(point.x, point.y, polygon.exterior):
        return True
    if not point_in_ring(point.x, point.y, polygon.exterior):
        return False
    for hole in polygon.interiors:
        if point_on_ring(point.x, point.y, hole):
            return True
        if point_in_ring(point.x, point.y, hole):
            return False
    return True


def points_in_polygon(xs, ys, polygon: Polygon) -> np.ndarray:
    """:func:`point_in_polygon` over coordinate arrays: a bool array, cell
    for cell equal to the scalar predicate.

    It makes the same decisions in the same order (bbox first, then the
    exterior, then each hole in ring order) with the same float expressions
    and the same ``_EPS`` on-ring tolerance, so no cell near an edge can come
    out differently. A cell leaves the computation once it is decided.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    box = polygon.bbox
    result = (
        (box.min_x <= xs) & (xs <= box.max_x) & (box.min_y <= ys) & (ys <= box.max_y)
    )
    undecided = np.flatnonzero(result)
    for index, ring in enumerate(polygon.rings):
        if not len(undecided):
            break
        segments = np.asarray(ring, dtype=np.float64)
        # A point on any ring is in the polygon: it stays True, decided.
        undecided = undecided[
            ~_points_on_ring(xs[undecided], ys[undecided], segments)
        ]
        inside = _points_in_ring(xs[undecided], ys[undecided], segments)
        # Outside the exterior, or strictly inside a hole: False, decided.
        excluded = inside if index else ~inside
        result[undecided[excluded]] = False
        undecided = undecided[~excluded]
    return result


#: Cells per (points x segments) block: bounds the kernels' temporaries.
_BLOCK_CELLS = 1 << 18


def _ring_blocks(xs: np.ndarray, ys: np.ndarray, segments: np.ndarray):
    """``(slice, px, py, ax, ay, bx, by)`` per block of points: the points as
    a column against the ring's segments ``a -> b`` as a row."""
    ax, ay = segments[:-1, 0], segments[:-1, 1]
    bx, by = segments[1:, 0], segments[1:, 1]
    step = max(1, _BLOCK_CELLS // len(ax))
    for start in range(0, len(xs), step):
        block = slice(start, start + step)
        yield block, xs[block, None], ys[block, None], ax, ay, bx, by


def _points_on_ring(xs: np.ndarray, ys: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """:func:`point_on_ring` per point: ``_on_segment(a, p, b)`` and
    ``_orientation(a, b, p) == 0`` on some segment, with the scalar
    arithmetic. The cheap box test goes first; the orientation is computed
    only for the (point, segment) pairs that pass it."""
    out = np.zeros(len(xs), dtype=bool)
    with np.errstate(all="ignore"):
        for block, px, py, ax, ay, bx, by in _ring_blocks(xs, ys, segments):
            between = (
                (np.minimum(ax, bx) - _EPS <= px)
                & (px <= np.maximum(ax, bx) + _EPS)
                & (np.minimum(ay, by) - _EPS <= py)
                & (py <= np.maximum(ay, by) + _EPS)
            )
            point, segment = np.nonzero(between)
            if not len(point):
                continue
            px, py = px[point, 0], py[point, 0]
            ax, ay, bx, by = ax[segment], ay[segment], bx[segment], by[segment]
            dx, dy, rx, ry = bx - ax, by - ay, px - ax, py - ay
            value = dx * ry - dy * rx
            scale = np.maximum(
                np.maximum(np.maximum(np.abs(dx), np.abs(dy)), np.abs(rx)),
                np.maximum(np.abs(ry), 1.0),
            )
            collinear = np.abs(value) <= _EPS * scale * scale
            out[block.start + point[collinear]] = True
    return out


def _points_in_ring(xs: np.ndarray, ys: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """:func:`point_in_ring` per point: the parity of the crossings left of
    it, each crossing computed as the scalar loop computes it."""
    out = np.zeros(len(xs), dtype=bool)
    with np.errstate(all="ignore"):
        for block, px, py, x1, y1, x2, y2 in _ring_blocks(xs, ys, segments):
            crosses = (y1 > py) != (y2 > py)
            # Cells whose edge does not cross the point's row are masked
            # out, so a horizontal edge's division by zero is discarded.
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            out[block] = np.count_nonzero(crosses & (px < x_cross), axis=1) % 2 == 1
    return out


def _rings_cross(
    rings_a: Sequence[Sequence[Coordinate]], rings_b: Sequence[Sequence[Coordinate]]
) -> bool:
    for ring_a in rings_a:
        for ring_b in rings_b:
            for sa in zip(ring_a, ring_a[1:]):
                for sb in zip(ring_b, ring_b[1:]):
                    if segments_intersect(sa[0], sa[1], sb[0], sb[1]):
                        return True
    return False


def _line_crosses_polygon_boundary(line: LineString, polygon: Polygon) -> bool:
    for seg in line.segments():
        for ring in polygon.rings:
            for rseg in zip(ring, ring[1:]):
                if segments_intersect(seg[0], seg[1], rseg[0], rseg[1]):
                    return True
    return False


# ---------------------------------------------------------------------------
# Public predicates
# ---------------------------------------------------------------------------

def intersects(a: Geometry, b: Geometry) -> bool:
    """True if geometries *a* and *b* share at least one point."""
    if not a.bbox.intersects(b.bbox):
        return False
    if isinstance(a, _MultiGeometry):
        return any(intersects(part, b) for part in a)
    if isinstance(b, _MultiGeometry):
        return any(intersects(a, part) for part in b)
    return _simple_intersects(a, b)


def _simple_intersects(a: Geometry, b: Geometry) -> bool:
    if isinstance(a, Point) and isinstance(b, Point):
        return math.hypot(a.x - b.x, a.y - b.y) <= _EPS
    if isinstance(a, Point) and isinstance(b, LineString):
        return any(
            point_segment_distance((a.x, a.y), s, e) <= _EPS for s, e in b.segments()
        )
    if isinstance(a, LineString) and isinstance(b, Point):
        return _simple_intersects(b, a)
    if isinstance(a, Point) and isinstance(b, Polygon):
        return point_in_polygon(a, b)
    if isinstance(a, Polygon) and isinstance(b, Point):
        return point_in_polygon(b, a)
    if isinstance(a, LineString) and isinstance(b, LineString):
        return any(
            segments_intersect(sa[0], sa[1], sb[0], sb[1])
            for sa in a.segments()
            for sb in b.segments()
        )
    if isinstance(a, LineString) and isinstance(b, Polygon):
        if _line_crosses_polygon_boundary(a, b):
            return True
        return point_in_polygon(Point(*a.coords[0]), b)
    if isinstance(a, Polygon) and isinstance(b, LineString):
        return _simple_intersects(b, a)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        if _rings_cross(a.rings, b.rings):
            return True
        # No boundary crossing: one polygon may lie entirely inside the other.
        if point_in_polygon(Point(*b.exterior[0]), a):
            return True
        return point_in_polygon(Point(*a.exterior[0]), b)
    raise GeometryError(
        f"intersects not defined for {type(a).__name__} / {type(b).__name__}"
    )


def contains(a: Geometry, b: Geometry) -> bool:
    """True if every point of *b* lies in (interior or boundary of) *a*."""
    if not a.bbox.contains_box(b.bbox):
        return False
    if isinstance(b, _MultiGeometry):
        return all(contains(a, part) for part in b)
    if isinstance(a, MultiPolygon):
        # Sufficient condition: some member contains b outright. (Containment
        # split across members is not representable without polygon union.)
        return any(contains(part, b) for part in a)
    if isinstance(a, (MultiPoint, MultiLineString)):
        return any(contains(part, b) for part in a)
    return _simple_contains(a, b)


def _simple_contains(a: Geometry, b: Geometry) -> bool:
    if isinstance(a, Point):
        return isinstance(b, Point) and a == b
    if isinstance(a, LineString):
        if isinstance(b, Point):
            return _simple_intersects(b, a)
        if isinstance(b, LineString):
            return all(
                any(
                    point_segment_distance(v, s, e) <= _EPS
                    for s, e in a.segments()
                )
                for v in b.coords
            ) and intersects(a, b)
        return False
    if isinstance(a, Polygon):
        if isinstance(b, Point):
            return point_in_polygon(b, a)
        if isinstance(b, LineString):
            # All vertices inside, and the line never exits through a hole:
            # approximate by requiring all vertices + segment midpoints inside.
            probes = list(b.coords) + [
                ((s[0] + e[0]) / 2.0, (s[1] + e[1]) / 2.0) for s, e in b.segments()
            ]
            return all(point_in_polygon(Point(*p), a) for p in probes)
        if isinstance(b, Polygon):
            if not all(
                point_in_polygon(Point(x, y), a) for x, y in b.exterior[:-1]
            ):
                return False
            # Exclude the case where b dips into one of a's holes.
            for hole in a.interiors:
                hole_poly = Polygon(hole)
                if intersects(hole_poly, b) and not _boundary_only_overlap(
                    hole_poly, b
                ):
                    return False
            return True
        return False
    raise GeometryError(
        f"contains not defined for {type(a).__name__} / {type(b).__name__}"
    )


def _boundary_only_overlap(hole: Polygon, other: Polygon) -> bool:
    """True if *other* only touches the hole's boundary (no interior overlap)."""
    centroid = other.centroid
    return not (
        point_in_polygon(centroid, hole)
        and not point_on_ring(centroid.x, centroid.y, hole.exterior)
    )


def within(a: Geometry, b: Geometry) -> bool:
    """True if *a* lies entirely inside *b* — the converse of :func:`contains`."""
    return contains(b, a)


def disjoint(a: Geometry, b: Geometry) -> bool:
    """True if the geometries share no point."""
    return not intersects(a, b)


def distance(a: Geometry, b: Geometry) -> float:
    """Minimum Euclidean distance between the two geometries (0 if touching)."""
    if isinstance(a, _MultiGeometry):
        return min(distance(part, b) for part in a)
    if isinstance(b, _MultiGeometry):
        return min(distance(a, part) for part in b)
    if intersects(a, b):
        return 0.0
    return _boundary_distance(a, b)


def _geometry_segments(geom: Geometry):
    if isinstance(geom, Point):
        return [((geom.x, geom.y), (geom.x, geom.y))]
    if isinstance(geom, LineString):
        return list(geom.segments())
    if isinstance(geom, Polygon):
        segments = []
        for ring in geom.rings:
            segments.extend(zip(ring, ring[1:]))
        return segments
    raise GeometryError(f"distance not defined for {type(geom).__name__}")


def _boundary_distance(a: Geometry, b: Geometry) -> float:
    return min(
        segment_segment_distance(sa[0], sa[1], sb[0], sb[1])
        for sa in _geometry_segments(a)
        for sb in _geometry_segments(b)
    )
