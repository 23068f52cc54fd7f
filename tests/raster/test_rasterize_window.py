"""The one scan conversion: windowed, exact and vectorised.

``rasterize_window`` replaced a per-row Python loop. The loop survives here
as :func:`reference_mask` — the scalar sorted-pairs ``[start, end)`` fill the
vectorised rule must reproduce bit for bit — and the cube/zonal tests import
it as their independent full-grid mask.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import RasterError
from repro.geometry import BoundingBox, Polygon
from repro.raster.grid import GeoTransform, RasterGrid, pixel_window
from repro.raster.stats import (
    polygon_window_mask,
    rasterize_polygon,
    rasterize_window,
    zonal_mean,
    zonal_stats,
)


def reference_mask(polygon, transform, shape):
    """Scalar scanline fill: per row, sort each ring's crossings and fill
    ``[start, end)`` between pairs; rings combine by XOR (holes exit)."""
    height, width = shape
    mask = np.zeros((height, width), dtype=bool)
    size = transform.pixel_size
    col_centers = transform.origin_x + (np.arange(width) + 0.5) * size
    for row in range(height):
        y = transform.origin_y - (row + 0.5) * size
        inside = np.zeros(width, dtype=bool)
        for ring in polygon.rings:
            crossings = []
            for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
                if (y1 > y) != (y2 > y):
                    crossings.append(x1 + (y - y1) * (x2 - x1) / (y2 - y1))
            crossings.sort()
            for start, end in zip(crossings[0::2], crossings[1::2]):
                inside ^= (col_centers >= start) & (col_centers < end)
        mask[row] = inside
    return mask


PIXEL_SIZES = (1.0, 10.0, 0.1, 0.3, 7.7)


@st.composite
def grids(draw):
    """A transform and a grid shape; pixel sizes include non-dyadic ones."""
    size = draw(st.sampled_from(PIXEL_SIZES))
    origin_x = draw(st.sampled_from((0.0, -3.5, 500000.0, 1234.56)))
    origin_y = draw(st.sampled_from((0.0, 12.0, 4321.5)))
    height = draw(st.integers(1, 18))
    width = draw(st.integers(1, 18))
    return GeoTransform(origin_x, origin_y, size), (height, width)


def coordinate(draw, transform, count, axis):
    """One map coordinate: exactly a pixel center, or anywhere near the grid
    (up to three pixels outside it)."""
    size = transform.pixel_size
    if draw(st.booleans()):
        index = draw(st.integers(-2, count + 1))
        x, y = transform.pixel_to_map(index, index)
        return x if axis == "x" else y
    offset = draw(st.floats(-3.0, count + 3.0, allow_nan=False)) * size
    return transform.origin_x + offset if axis == "x" else transform.origin_y - offset


@st.composite
def ring(draw, transform, shape):
    height, width = shape
    vertices = [
        (coordinate(draw, transform, width, "x"),
         coordinate(draw, transform, height, "y"))
        for _ in range(draw(st.integers(3, 7)))
    ]
    assume(vertices[0] != vertices[-1])  # Polygon would read it as closed
    return vertices


@st.composite
def polygons(draw, transform, shape):
    """A random (possibly self-crossing) polygon, sometimes with a hole drawn
    from the same vertex pool — parity fill defines both."""
    exterior = draw(ring(transform, shape))
    holes = [draw(ring(transform, shape))] if draw(st.booleans()) else []
    return Polygon(exterior, interiors=holes)


@st.composite
def windows(draw, shape):
    height, width = shape
    row0 = draw(st.integers(0, height))
    row1 = draw(st.integers(row0, height))
    col0 = draw(st.integers(0, width))
    col1 = draw(st.integers(col0, width))
    return row0, row1, col0, col1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_windowed_mask_is_the_cropped_full_mask(data):
    transform, shape = data.draw(grids())
    polygon = data.draw(polygons(transform, shape))
    row0, row1, col0, col1 = window = data.draw(windows(shape))
    full = rasterize_polygon(polygon, transform, shape)
    windowed = rasterize_window(polygon, transform, window)
    assert windowed.dtype == bool
    assert windowed.shape == (row1 - row0, col1 - col0)
    assert np.array_equal(windowed, full[row0:row1, col0:col1])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_vectorised_mask_equals_scalar_reference(data):
    transform, shape = data.draw(grids())
    polygon = data.draw(polygons(transform, shape))
    assert np.array_equal(
        rasterize_polygon(polygon, transform, shape),
        reference_mask(polygon, transform, shape),
    )


def test_many_vertex_polygon_matches_reference():
    """A 200-gon: every edge crosses a handful of rows only."""
    transform, shape = GeoTransform(0.0, 64.0, 1.0), (64, 64)
    polygon = Polygon.regular(31.7, 30.2, 25.3, 200)
    assert np.array_equal(
        rasterize_polygon(polygon, transform, shape),
        reference_mask(polygon, transform, shape),
    )


def dense_window(transform, shape, bbox):
    """The window by comparing every pixel center with the box."""
    height, width = shape
    size = transform.pixel_size
    xs = transform.origin_x + (np.arange(width) + 0.5) * size
    ys = transform.origin_y - (np.arange(height) + 0.5) * size
    cols = np.flatnonzero((xs >= bbox.min_x) & (xs <= bbox.max_x))
    rows = np.flatnonzero((ys >= bbox.min_y) & (ys <= bbox.max_y))
    if cols.size == 0 or rows.size == 0:
        return 0, 0, 0, 0
    return rows[0], rows[-1] + 1, cols[0], cols[-1] + 1


class TestPixelWindow:
    def test_center_on_the_box_edge_is_kept(self):
        """Fails on the parent's ceil/floor arithmetic: at pixel size 0.1,
        ``(center - origin) / size - 0.5`` lands just above the column index
        and the column whose center *is* the box edge was dropped."""
        transform = GeoTransform(0.0, 0.0, 0.1)
        x, y = transform.pixel_to_map(1, 1)  # 0.15000000000000002, -0.15...
        window = pixel_window(transform, (4, 4), BoundingBox(x, y, x, y))
        assert window == (1, 2, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_dense_center_comparison(self, data):
        transform, shape = data.draw(grids())
        height, width = shape
        xs = sorted(coordinate(data.draw, transform, width, "x") for _ in range(2))
        ys = sorted(coordinate(data.draw, transform, height, "y") for _ in range(2))
        bbox = BoundingBox(xs[0], ys[0], xs[1], ys[1])
        assert pixel_window(transform, shape, bbox) == dense_window(
            transform, shape, bbox
        )

    def test_disjoint_box_is_the_empty_window(self):
        transform = GeoTransform(0.0, 10.0, 1.0)
        assert pixel_window(transform, (10, 10), BoundingBox(50, 50, 60, 60)) == (0, 0, 0, 0)
        # Between two center columns: rows exist, no column does.
        assert pixel_window(transform, (10, 10), BoundingBox(2.6, 0, 3.4, 10)) == (0, 0, 0, 0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_polygon_window_holds_every_polygon_pixel(data):
    """The bounding-box window is a superset of the rasterized pixels, so
    cropping to it loses nothing."""
    transform, shape = data.draw(grids())
    polygon = Polygon(data.draw(ring(transform, shape)))
    (row0, row1, col0, col1), mask = polygon_window_mask(polygon, transform, shape)
    full = np.zeros(shape, dtype=bool)
    full[row0:row1, col0:col1] = mask
    assert np.array_equal(full, reference_mask(polygon, transform, shape))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_zonal_summaries_are_bit_identical_to_the_full_grid_path(data):
    """Windowed rasterization gathers the same values in the same order as
    ``band[full_grid_mask]`` did, so every float is the same float."""
    transform, shape = data.draw(grids())
    fields = [Polygon(data.draw(ring(transform, shape)))
              for _ in range(data.draw(st.integers(1, 3)))]
    values = np.random.default_rng(data.draw(st.integers(0, 2**16))).random((2, *shape))
    grid = RasterGrid(values, transform)
    expected = {}
    for index, polygon in enumerate(fields):
        picked = values[1][reference_mask(polygon, transform, shape)]
        if picked.size:
            expected[index] = {
                "mean": float(picked.mean()), "min": float(picked.min()),
                "max": float(picked.max()), "count": int(picked.size),
            }
    assert zonal_stats(grid, fields, band=1) == expected
    for index, polygon in enumerate(fields):
        want = expected[index]["mean"] if index in expected else None
        assert zonal_mean(grid, polygon, band=1) == want


def test_explicit_masks_keep_the_full_grid_contract():
    transform, shape = GeoTransform(0.0, 10.0, 1.0), (10, 10)
    grid = RasterGrid(np.arange(100.0).reshape(10, 10), transform)
    polygon = Polygon.box(2, 2, 6, 7)
    (row0, row1, col0, col1), windowed = polygon_window_mask(polygon, transform, shape)
    assert windowed.shape == (row1 - row0, col1 - col0) != shape
    with pytest.raises(RasterError, match="shape"):
        zonal_mean(grid, polygon, mask=windowed)
