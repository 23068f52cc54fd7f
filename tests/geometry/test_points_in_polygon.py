"""The vectorised point-in-polygon kernel equals the scalar predicate.

``points_in_polygon`` must answer exactly as ``point_in_polygon`` does for
every cell, on the boundary cases where a tolerance or a float expression
evaluated differently would show: vertices, points on edges, points 1e-13
to 2e-12 off an edge (inside and outside the on-ring tolerance), points
outside the bounding box, horizontal and vertical edges, edges shorter than
1, concave rings and holes.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Polygon
from repro.geometry.predicates import point_in_polygon, points_in_polygon

#: Grid coordinates make horizontal, vertical and collinear edges common.
grid = st.integers(min_value=-8, max_value=8).map(lambda i: i * 0.5)
fine = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    x0, x1 = sorted(draw(st.tuples(grid | fine, grid | fine)))
    y0, y1 = sorted(draw(st.tuples(grid | fine, grid | fine)))
    if x0 == x1 or y0 == y1:
        x1, y1 = x0 + 1.0, y0 + 1.0
    return Polygon.box(x0, y0, x1, y1)


@st.composite
def star_rings(draw, center=(0.0, 0.0), radius=4.0):
    """A ring around *center* with vertices in angle order: simple, and
    concave whenever the radii differ; snapped to the grid half the time."""
    count = draw(st.integers(min_value=3, max_value=9))
    angles = sorted(
        draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True),
                      min_size=count, max_size=count, unique=True))
    )
    radii = draw(st.lists(st.floats(0.2, 1.0), min_size=count, max_size=count))
    snap = draw(st.booleans())
    ring = []
    for angle, r in zip(angles, radii):
        x = center[0] + radius * r * math.cos(angle)
        y = center[1] + radius * r * math.sin(angle)
        ring.append((round(x * 2) / 2, round(y * 2) / 2) if snap else (x, y))
    return ring


@st.composite
def polygons(draw):
    kind = draw(st.sampled_from(
        ["box", "star", "small_star", "box_with_holes", "star_with_hole"]
    ))
    if kind == "box":
        return draw(boxes())
    if kind in ("star", "small_star"):
        # Edges shorter than 1 put the orientation tolerance's 1.0 floor
        # to work.
        ring = draw(star_rings(radius=4.0 if kind == "star" else 0.4))
        if len(set(ring)) < 3:
            return draw(boxes())
        return Polygon(ring)
    if kind == "box_with_holes":
        return Polygon(
            [(-5, -5), (5, -5), (5, 5), (-5, 5)],
            [[(-4, -4), (-1, -4), (-1, -1), (-4, -1)],
             [(1, 1), (4, 1), (4, 4), (1, 4)]],
        )
    hole = draw(star_rings(radius=1.5))
    if len(set(hole)) < 3:
        hole = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    return Polygon([(-5, -5), (5, -5), (5, 5), (-5, 5)], [hole])


@st.composite
def probe_points(draw, polygon):
    """Points where the answer is decided by a hair, plus plain ones."""
    edges = [
        (a, b) for ring in polygon.rings for a, b in zip(ring, ring[1:])
    ]
    box = polygon.bbox
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        kind = draw(st.sampled_from(["vertex", "edge", "near", "outside", "inside"]))
        if kind == "vertex":
            points.append(draw(st.sampled_from([a for a, _ in edges])))
        elif kind in ("edge", "near"):
            (ax, ay), (bx, by) = draw(st.sampled_from(edges))
            t = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
            x, y = ax + t * (bx - ax), ay + t * (by - ay)
            if kind == "near":
                # Inside and outside the on-ring tolerance.
                offset = draw(st.sampled_from([1e-13, -1e-13, 6e-13, -2e-12]))
                dx, dy = draw(st.sampled_from([(offset, 0), (0, offset)]))
                x, y = x + dx, y + dy
            points.append((x, y))
        elif kind == "outside":
            points.append(draw(st.sampled_from([
                (box.min_x - 1.0, box.min_y), (box.max_x + 1e-9, box.max_y),
                (box.min_x, box.max_y + 2.0), (box.max_x, box.min_y - 1e-13),
            ])))
        else:
            points.append((
                draw(st.floats(box.min_x, box.max_x)),
                draw(st.floats(box.min_y, box.max_y)),
            ))
    return points


@st.composite
def cases(draw):
    polygon = draw(polygons())
    return polygon, draw(probe_points(polygon))


def oracle(points, polygon):
    return [point_in_polygon(Point(x, y), polygon) for x, y in points]


@given(case=cases())
@settings(max_examples=400, deadline=None)
def test_kernel_equals_scalar_oracle(case):
    polygon, points = case
    got = points_in_polygon([x for x, _ in points], [y for _, y in points], polygon)
    assert got.dtype == bool
    assert got.tolist() == oracle(points, polygon), (polygon, points)


def test_empty_input():
    polygon = Polygon.box(0, 0, 1, 1)
    assert points_in_polygon([], [], polygon).tolist() == []


def test_hole_boundary_inside_hole_and_between():
    polygon = Polygon(
        [(0, 0), (10, 0), (10, 10), (0, 10)], [[(4, 4), (6, 4), (6, 6), (4, 6)]]
    )
    points = [(5, 5), (4, 5), (2, 2), (10, 5), (11, 5), (6, 6), (5, 4 + 1e-13)]
    got = points_in_polygon([p[0] for p in points], [p[1] for p in points], polygon)
    assert got.tolist() == oracle(points, polygon)
    assert got.tolist() == [False, True, True, True, False, True, True]


def test_blocks_of_a_long_ring_agree():
    """A ring with enough segments that the points are split into blocks."""
    count = 2000
    ring = [
        (math.cos(2 * math.pi * i / count) * (1 + 0.3 * (i % 2)),
         math.sin(2 * math.pi * i / count) * (1 + 0.3 * (i % 2)))
        for i in range(count)
    ]
    polygon = Polygon(ring)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1.4, 1.4, 300)
    ys = rng.uniform(-1.4, 1.4, 300)
    xs[:5] = [x for x, _ in ring[:5]]
    ys[:5] = [y for _, y in ring[:5]]
    got = points_in_polygon(xs, ys, polygon)
    assert got.tolist() == oracle(zip(xs.tolist(), ys.tolist()), polygon)
