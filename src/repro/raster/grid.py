"""Raster grids: numpy arrays with georeferencing.

A :class:`RasterGrid` couples a ``(bands, rows, cols)`` float array with a
:class:`GeoTransform` mapping pixel indices to planar map coordinates (the
local metric frame from :mod:`repro.geometry.crs`). Row 0 is the northern
edge, consistent with imagery conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import RasterError
from repro.geometry import BoundingBox, Polygon


@dataclass(frozen=True)
class GeoTransform:
    """Affine pixel->map transform (axis-aligned, square pixels).

    ``origin_x/origin_y`` locate the *top-left corner* of pixel (0, 0);
    y decreases with rows.
    """

    origin_x: float
    origin_y: float
    pixel_size: float

    def __post_init__(self) -> None:
        if self.pixel_size <= 0:
            raise RasterError(f"pixel_size must be positive, got {self.pixel_size}")

    def pixel_to_map(self, row: float, col: float) -> Tuple[float, float]:
        """Map coordinates of a pixel's *center*."""
        x = self.origin_x + (col + 0.5) * self.pixel_size
        y = self.origin_y - (row + 0.5) * self.pixel_size
        return x, y

    def map_to_pixel(self, x: float, y: float) -> Tuple[int, int]:
        """(row, col) of the pixel containing map point (x, y)."""
        col = int(np.floor((x - self.origin_x) / self.pixel_size))
        row = int(np.floor((self.origin_y - y) / self.pixel_size))
        return row, col


#: A half-open pixel window ``(row0, row1, col0, col1)``; ``(0, 0, 0, 0)``
#: when empty.
Window = Tuple[int, int, int, int]


def _center_range(origin: float, size: float, count: int,
                  low: float, high: float) -> Tuple[int, int]:
    """Half-open range of the indices ``i`` in ``[0, count)`` whose center
    ``origin + (i + 0.5) * size`` lies in ``[low, high]``.

    The divisions only guess; each end then moves until the centers
    themselves agree, because with a pixel size like 0.1 the guess alone
    drops a center lying exactly on the bound.
    """
    start = min(max(int((low - origin) / size), 0), count)
    while start > 0 and origin + (start - 1 + 0.5) * size >= low:
        start -= 1
    while start < count and origin + (start + 0.5) * size < low:
        start += 1
    stop = min(max(int((high - origin) / size), start), count)
    while stop > start and origin + (stop - 1 + 0.5) * size > high:
        stop -= 1
    while stop < count and origin + (stop + 0.5) * size <= high:
        stop += 1
    return start, stop


def pixel_window(
    transform: GeoTransform, shape: Tuple[int, int], bbox: BoundingBox
) -> Window:
    """The :data:`Window` of the pixels of a ``(height, width)`` grid whose
    *centers* lie in *bbox*, borders included.

    Decided on the very center coordinates of :meth:`GeoTransform.
    pixel_to_map`, so it agrees bit for bit with a rasterizer or a dense
    ``centers >= min_x`` mask over the same grid. Rows run north to south:
    negating the y axis (exact in floating point) makes them ascending.
    """
    height, width = shape
    size = transform.pixel_size
    col0, col1 = _center_range(transform.origin_x, size, width,
                               bbox.min_x, bbox.max_x)
    row0, row1 = _center_range(-transform.origin_y, size, height,
                               -bbox.max_y, -bbox.min_y)
    if col0 >= col1 or row0 >= row1:
        return 0, 0, 0, 0
    return row0, row1, col0, col1


class RasterGrid:
    """A georeferenced multi-band raster."""

    def __init__(self, data: np.ndarray, transform: GeoTransform):
        data = np.asarray(data)
        if data.ndim == 2:
            data = data[np.newaxis, :, :]
        if data.ndim != 3:
            raise RasterError(f"raster data must be 2-D or 3-D, got ndim={data.ndim}")
        if data.shape[1] == 0 or data.shape[2] == 0:
            raise RasterError("raster must have positive height and width")
        self.data = data
        self.transform = transform

    # ------------------------------------------------------------------
    # Shape and extent
    # ------------------------------------------------------------------

    @property
    def band_count(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.data.shape

    @property
    def resolution(self) -> float:
        return self.transform.pixel_size

    @property
    def bbox(self) -> BoundingBox:
        size = self.transform.pixel_size
        return BoundingBox(
            self.transform.origin_x,
            self.transform.origin_y - self.height * size,
            self.transform.origin_x + self.width * size,
            self.transform.origin_y,
        )

    @property
    def footprint(self) -> Polygon:
        box = self.bbox
        return Polygon.box(box.min_x, box.min_y, box.max_x, box.max_y)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def band(self, index: int) -> np.ndarray:
        if not 0 <= index < self.band_count:
            raise RasterError(f"band index {index} out of range (0..{self.band_count - 1})")
        return self.data[index]

    # ------------------------------------------------------------------
    # Windows and values
    # ------------------------------------------------------------------

    def window(
        self, row: int, col: int, height: int, width: int, copy: bool = False
    ) -> "RasterGrid":
        """A sub-raster starting at (row, col).

        With ``copy=False`` (the default) the result shares memory with the
        parent: cheap for read-only windows, but mutating either side writes
        through to the other. Windows that outlive the parent or feed a
        storage path (tiling for HopsFS, datacube ingest) must pass
        ``copy=True`` to get an independent buffer.
        """
        if row < 0 or col < 0 or row + height > self.height or col + width > self.width:
            raise RasterError(
                f"window ({row},{col},{height},{width}) exceeds raster "
                f"{self.height}x{self.width}"
            )
        size = self.transform.pixel_size
        transform = GeoTransform(
            self.transform.origin_x + col * size,
            self.transform.origin_y - row * size,
            size,
        )
        data = self.data[:, row : row + height, col : col + width]
        if copy:
            data = data.copy()
        return RasterGrid(data, transform)

    def value_at(self, x: float, y: float, band: int = 0) -> float:
        """Sample the band value at map coordinates (nearest pixel)."""
        row, col = self.transform.map_to_pixel(x, y)
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise RasterError(f"point ({x}, {y}) outside raster extent")
        return float(self.data[band, row, col])

    # ------------------------------------------------------------------
    # Resampling
    # ------------------------------------------------------------------

    def resample(self, factor: int, method: str = "mean") -> "RasterGrid":
        """Downsample by an integer *factor* using block aggregation.

        ``method`` is ``mean`` (continuous data) or ``mode`` (class maps).
        Edge pixels that do not fill a block are dropped.
        """
        if factor < 1:
            raise RasterError("resample factor must be >= 1")
        if factor == 1:
            return self
        new_height = self.height // factor
        new_width = self.width // factor
        if new_height == 0 or new_width == 0:
            raise RasterError(
                f"factor {factor} too large for raster {self.height}x{self.width}"
            )
        cropped = self.data[:, : new_height * factor, : new_width * factor]
        blocks = cropped.reshape(
            self.band_count, new_height, factor, new_width, factor
        )
        if method == "mean":
            aggregated = blocks.mean(axis=(2, 4))
        elif method == "mode":
            aggregated = np.empty(
                (self.band_count, new_height, new_width), dtype=self.data.dtype
            )
            flat = blocks.transpose(0, 1, 3, 2, 4).reshape(
                self.band_count, new_height, new_width, factor * factor
            )
            for band in range(self.band_count):
                for row in range(new_height):
                    for col in range(new_width):
                        values, counts = np.unique(
                            flat[band, row, col], return_counts=True
                        )
                        aggregated[band, row, col] = values[np.argmax(counts)]
        else:
            raise RasterError(f"unknown resample method {method!r}")
        transform = GeoTransform(
            self.transform.origin_x,
            self.transform.origin_y,
            self.transform.pixel_size * factor,
        )
        return RasterGrid(aggregated, transform)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RasterGrid {self.band_count}x{self.height}x{self.width} "
            f"@{self.resolution}m>"
        )
