"""Geometry primitives: points, lines, polygons, and their bounding boxes.

All geometry classes are immutable. Construction validates basic shape
invariants (ring closure, minimum vertex counts) and raises
:class:`~repro.errors.GeometryError` on violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

from repro.errors import GeometryError

Coordinate = Tuple[float, float]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    The universal currency of the spatial indexes: every geometry exposes a
    bounding box, and index queries are phrased as box intersection.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise GeometryError(
                f"degenerate bounding box: ({self.min_x}, {self.min_y}, "
                f"{self.max_x}, {self.max_y})"
            )

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Coordinate:
        return ((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def intersects(self, other: "BoundingBox") -> bool:
        """True if the two boxes share at least one point (borders count)."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        """True if *other* lies entirely inside this box (borders count)."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def union(self, other: "BoundingBox") -> "BoundingBox":
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expand(self, margin: float) -> "BoundingBox":
        """Return a box grown by *margin* on every side."""
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def distance_to_point(self, x: float, y: float) -> float:
        """Euclidean distance from (x, y) to this box (0 inside)."""
        dx = max(self.min_x - x, 0.0, x - self.max_x)
        dy = max(self.min_y - y, 0.0, y - self.max_y)
        return math.hypot(dx, dy)

    @staticmethod
    def union_all(boxes: Iterable["BoundingBox"]) -> "BoundingBox":
        boxes = iter(boxes)
        try:
            result = next(boxes)
        except StopIteration:
            raise GeometryError("union_all of zero bounding boxes") from None
        for box in boxes:
            result = result.union(box)
        return result


class Geometry:
    """Abstract base for all geometry types."""

    geom_type: str = "Geometry"

    @property
    def bbox(self) -> BoundingBox:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.geometry.wkt import to_wkt

        return f"<{self.geom_type} {to_wkt(self)[:60]}>"


def _validate_coords(coords: Sequence[Coordinate], minimum: int, what: str) -> Tuple[Coordinate, ...]:
    coords = tuple((float(x), float(y)) for x, y in coords)
    if len(coords) < minimum:
        raise GeometryError(f"{what} requires at least {minimum} coordinates, got {len(coords)}")
    for x, y in coords:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"{what} has non-finite coordinate ({x}, {y})")
    return coords


def _coords_bbox(coords: Sequence[Coordinate]) -> BoundingBox:
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    return BoundingBox(min(xs), min(ys), max(xs), max(ys))


class Point(Geometry):
    """A single planar coordinate."""

    geom_type = "Point"
    __slots__ = ("x", "y", "_bbox")

    def __init__(self, x: float, y: float):
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"non-finite point coordinate ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Point is immutable")

    @property
    def bbox(self) -> BoundingBox:
        return BoundingBox(self.x, self.y, self.x, self.y)

    @property
    def coords(self) -> Tuple[Coordinate, ...]:
        return ((self.x, self.y),)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash(("Point", self.x, self.y))


class LineString(Geometry):
    """An open polyline of two or more vertices."""

    geom_type = "LineString"
    __slots__ = ("coords", "_bbox")

    def __init__(self, coords: Sequence[Coordinate]):
        object.__setattr__(self, "coords", _validate_coords(coords, 2, "LineString"))
        object.__setattr__(self, "_bbox", _coords_bbox(self.coords))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LineString is immutable")

    @property
    def bbox(self) -> BoundingBox:
        return self._bbox

    @property
    def length(self) -> float:
        return sum(
            math.hypot(x2 - x1, y2 - y1)
            for (x1, y1), (x2, y2) in zip(self.coords, self.coords[1:])
        )

    def segments(self) -> Iterator[Tuple[Coordinate, Coordinate]]:
        return zip(self.coords, self.coords[1:])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LineString) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(("LineString", self.coords))


class Polygon(Geometry):
    """A polygon with one exterior ring and zero or more interior rings (holes).

    Rings are stored closed (first coordinate == last coordinate); an unclosed
    input ring is closed automatically. Ring orientation is not normalised —
    the predicates in :mod:`repro.geometry.predicates` are orientation
    agnostic.
    """

    geom_type = "Polygon"
    __slots__ = ("exterior", "interiors", "_bbox")

    def __init__(
        self,
        exterior: Sequence[Coordinate],
        interiors: Sequence[Sequence[Coordinate]] = (),
    ):
        object.__setattr__(self, "exterior", self._close_ring(exterior))
        object.__setattr__(
            self, "interiors", tuple(self._close_ring(ring) for ring in interiors)
        )
        object.__setattr__(self, "_bbox", _coords_bbox(self.exterior))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polygon is immutable")

    @staticmethod
    def _close_ring(coords: Sequence[Coordinate]) -> Tuple[Coordinate, ...]:
        coords = _validate_coords(coords, 3, "Polygon ring")
        if coords[0] != coords[-1]:
            coords = coords + (coords[0],)
        if len(coords) < 4:
            raise GeometryError("Polygon ring requires at least 3 distinct vertices")
        return coords

    @property
    def bbox(self) -> BoundingBox:
        return self._bbox

    @property
    def rings(self) -> Tuple[Tuple[Coordinate, ...], ...]:
        return (self.exterior,) + self.interiors

    @property
    def area(self) -> float:
        """Unsigned area: exterior area minus hole areas (shoelace formula)."""
        return abs(_ring_signed_area(self.exterior)) - sum(
            abs(_ring_signed_area(ring)) for ring in self.interiors
        )

    @property
    def centroid(self) -> Point:
        """Area-weighted centroid of the exterior ring."""
        cx, cy, area = 0.0, 0.0, _ring_signed_area(self.exterior)
        if area == 0.0:
            xs = [c[0] for c in self.exterior[:-1]]
            ys = [c[1] for c in self.exterior[:-1]]
            return Point(sum(xs) / len(xs), sum(ys) / len(ys))
        for (x1, y1), (x2, y2) in zip(self.exterior, self.exterior[1:]):
            cross = x1 * y2 - x2 * y1
            cx += (x1 + x2) * cross
            cy += (y1 + y2) * cross
        return Point(cx / (6.0 * area), cy / (6.0 * area))

    @property
    def perimeter(self) -> float:
        return sum(
            math.hypot(x2 - x1, y2 - y1)
            for (x1, y1), (x2, y2) in zip(self.exterior, self.exterior[1:])
        )

    @property
    def vertex_count(self) -> int:
        """Total vertices across all rings (closing vertex not double counted)."""
        return sum(len(ring) - 1 for ring in self.rings)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polygon)
            and self.exterior == other.exterior
            and self.interiors == other.interiors
        )

    def __hash__(self) -> int:
        return hash(("Polygon", self.exterior, self.interiors))

    @staticmethod
    def box(min_x: float, min_y: float, max_x: float, max_y: float) -> "Polygon":
        """Axis-aligned rectangular polygon — the workhorse of selection queries."""
        if min_x >= max_x or min_y >= max_y:
            raise GeometryError("Polygon.box requires min < max on both axes")
        return Polygon(
            [(min_x, min_y), (max_x, min_y), (max_x, max_y), (min_x, max_y)]
        )

    @staticmethod
    def regular(
        center_x: float, center_y: float, radius: float, sides: int
    ) -> "Polygon":
        """Regular *sides*-gon; used to synthesise complex geometries (E3)."""
        if sides < 3:
            raise GeometryError("regular polygon requires >= 3 sides")
        if radius <= 0:
            raise GeometryError("regular polygon requires positive radius")
        step = 2.0 * math.pi / sides
        return Polygon(
            [
                (center_x + radius * math.cos(i * step), center_y + radius * math.sin(i * step))
                for i in range(sides)
            ]
        )


def _ring_signed_area(ring: Sequence[Coordinate]) -> float:
    area = 0.0
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        area += x1 * y2 - x2 * y1
    return area / 2.0


class _MultiGeometry(Geometry):
    """Shared behaviour for homogeneous geometry collections."""

    member_type: type = Geometry
    __slots__ = ("geoms", "_bbox")

    def __init__(self, geoms: Sequence[Geometry]):
        geoms = tuple(geoms)
        if not geoms:
            raise GeometryError(f"{self.geom_type} requires at least one member")
        for geom in geoms:
            if not isinstance(geom, self.member_type):
                raise GeometryError(
                    f"{self.geom_type} member must be {self.member_type.__name__}, "
                    f"got {type(geom).__name__}"
                )
        object.__setattr__(self, "geoms", geoms)
        object.__setattr__(
            self, "_bbox", BoundingBox.union_all(g.bbox for g in geoms)
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{self.geom_type} is immutable")

    @property
    def bbox(self) -> BoundingBox:
        return self._bbox

    def __len__(self) -> int:
        return len(self.geoms)

    def __iter__(self) -> Iterator[Geometry]:
        return iter(self.geoms)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.geoms == other.geoms

    def __hash__(self) -> int:
        return hash((self.geom_type, self.geoms))


class MultiPoint(_MultiGeometry):
    geom_type = "MultiPoint"
    member_type = Point


class MultiLineString(_MultiGeometry):
    geom_type = "MultiLineString"
    member_type = LineString


class MultiPolygon(_MultiGeometry):
    geom_type = "MultiPolygon"
    member_type = Polygon

    @property
    def area(self) -> float:
        return sum(p.area for p in self.geoms)

    @property
    def vertex_count(self) -> int:
        return sum(p.vertex_count for p in self.geoms)
