"""Raster/vector statistics: rasterization and zonal summaries.

Used by the Food Security application to aggregate per-field water demand and
by the weak labeller to stamp cartographic polygons onto pixel grids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RasterError
from repro.geometry import Polygon
from repro.raster.grid import GeoTransform, RasterGrid, Window, pixel_window


def rasterize_window(
    polygon: Polygon, transform: GeoTransform, window: Window
) -> np.ndarray:
    """Boolean mask, over the pixel *window* ``(row0, row1, col0, col1)``, of
    the pixels whose center lies inside *polygon*.

    The one scan conversion: a center is inside iff an odd number of ring-edge
    crossings on its row lie at or left of it, over all rings at once —
    crossing an exterior edge enters, crossing a hole edge exits. That is the
    *left-closed* ``[start, end)`` fill between sorted crossing pairs, ties
    included (the convention of GDAL's all-touched=False rasterizer): a center
    exactly on a span's left crossing is inside, one exactly on its right
    crossing is outside, so two polygons sharing an edge aligned to pixel
    centers partition the pixels instead of dropping or double-counting a
    column. Each edge flips only the rows it crosses — O(crossings x window
    width), no per-row loop.

    Centers come from *absolute* row/col indices, never from a shifted
    transform, so the mask equals the full-grid mask cropped to the window
    bit for bit.
    """
    row0, row1, col0, col1 = window
    size = transform.pixel_size
    col_centers = transform.origin_x + (np.arange(col0, col1) + 0.5) * size
    row_centers = transform.origin_y - (np.arange(row0, row1) + 0.5) * size
    mask = np.zeros((row1 - row0, col1 - col0), dtype=bool)
    for ring in polygon.rings:
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            rows = (y1 > row_centers) != (y2 > row_centers)
            if rows.any():  # never for a horizontal edge: no division by 0
                crossings = x1 + (row_centers[rows] - y1) * (x2 - x1) / (y2 - y1)
                mask[rows] ^= crossings[:, np.newaxis] <= col_centers
    return mask


def rasterize_polygon(
    polygon: Polygon, transform: GeoTransform, shape: Tuple[int, int]
) -> np.ndarray:
    """Boolean ``shape`` mask of pixels whose center lies inside *polygon*:
    :func:`rasterize_window` over the whole grid."""
    height, width = shape
    if height <= 0 or width <= 0:
        raise RasterError("rasterize shape must be positive")
    return rasterize_window(polygon, transform, (0, height, 0, width))


def polygon_window_mask(
    polygon: Polygon, transform: GeoTransform, shape: Tuple[int, int]
) -> Tuple[Window, np.ndarray]:
    """The pixel window of *polygon*'s bounding box on a ``shape`` grid and
    its mask on that window — every pixel the polygon holds, at the cost of
    its own extent instead of the grid's."""
    window = pixel_window(transform, shape, polygon.bbox)
    return window, rasterize_window(polygon, transform, window)


def polygon_masks(
    polygons: Sequence[Polygon], transform: GeoTransform, shape: Tuple[int, int]
) -> List[np.ndarray]:
    """Rasterize each polygon once for a shared grid geometry.

    Zonal summaries over many bands, time steps, or scenes sharing one
    transform should hoist this out of the per-band/per-step loop and pass
    the result to :func:`zonal_stats`/:func:`zonal_mean` — rasterization is
    the expensive part and depends only on (polygon, transform, shape).
    """
    return [rasterize_polygon(polygon, transform, shape) for polygon in polygons]


def _zone_values(
    grid: RasterGrid, polygon: Polygon, band: int, mask: Optional[np.ndarray]
) -> np.ndarray:
    """Band values under the polygon, row-major. Without a *mask* the polygon
    is rasterized on its own pixel window; a precomputed one is full-grid."""
    shape = (grid.height, grid.width)
    if mask is None:
        (row0, row1, col0, col1), mask = polygon_window_mask(
            polygon, grid.transform, shape
        )
        return grid.band(band)[row0:row1, col0:col1][mask]
    if mask.shape != shape:
        raise RasterError(
            f"mask shape {mask.shape} does not match raster {shape}"
        )
    return grid.band(band)[mask]


def zonal_mean(
    grid: RasterGrid,
    polygon: Polygon,
    band: int = 0,
    mask: Optional[np.ndarray] = None,
) -> Optional[float]:
    """Mean band value over the polygon, or None if no pixel center falls inside.

    ``mask`` short-circuits rasterization with a precomputed boolean mask
    (from :func:`polygon_masks`) so repeated calls over bands or time steps
    sharing a transform don't re-rasterize the polygon.
    """
    values = _zone_values(grid, polygon, band, mask)
    return float(values.mean()) if values.size else None


def zonal_stats(
    grid: RasterGrid,
    polygons: Sequence[Polygon],
    band: int = 0,
    masks: Optional[Sequence[np.ndarray]] = None,
) -> Dict[int, Dict[str, float]]:
    """Per-polygon mean/min/max/count for one band (index -> stats).

    ``masks`` accepts the output of :func:`polygon_masks` computed once for
    this grid geometry; without it every call rasterizes every polygon (on
    its own pixel window).
    """
    if masks is None:
        masks = [None] * len(polygons)
    elif len(masks) != len(polygons):
        raise RasterError(
            f"got {len(masks)} masks for {len(polygons)} polygons"
        )
    results: Dict[int, Dict[str, float]] = {}
    for index, (polygon, mask) in enumerate(zip(polygons, masks)):
        values = _zone_values(grid, polygon, band, mask)
        if values.size:
            results[index] = {
                "mean": float(values.mean()),
                "min": float(values.min()),
                "max": float(values.max()),
                "count": int(values.size),
            }
    return results


def class_fractions(truth: np.ndarray) -> Dict[int, float]:
    """Fraction of pixels per class value in a label field."""
    truth = np.asarray(truth)
    if truth.size == 0:
        raise RasterError("empty label field")
    values, counts = np.unique(truth, return_counts=True)
    total = truth.size
    return {int(v): float(c) / total for v, c in zip(values, counts)}
