"""Iceberg detection and tracking on SAR scenes.

Icebergs are bright, compact targets against open water. Detection is the
classic CFAR-style contrast test: a pixel group is a candidate when its VV
backscatter exceeds the local open-water background by a margin; connected
candidates become detections with a georeferenced outline. Tracking
associates detections across acquisitions by nearest centroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy import ndimage

from repro.errors import ReproError
from repro.geometry import Point, Polygon
from repro.raster.sentinel import SeaIce, SentinelScene


@dataclass(frozen=True)
class IcebergDetection:
    """One detected iceberg."""

    detection_id: str
    outline: Polygon
    centroid: Point
    area_m2: float
    mean_backscatter_db: float
    day_of_year: int


def detect_icebergs(
    scene: SentinelScene,
    contrast_db: float = 6.0,
    min_pixels: int = 2,
    max_pixels: int = 400,
    background_window: int = 9,
    water_quantile: float = 0.2,
    water_margin_db: float = 3.0,
) -> List[IcebergDetection]:
    """CFAR-style detection of bright compact targets in open water.

    A pixel is a candidate when it exceeds its *local* background (median
    over a ``background_window`` neighbourhood) by ``contrast_db`` **and**
    that local background is dark — at most ``water_margin_db`` above the
    scene's open-water level (the ``water_quantile`` of VV). The water gate
    is what separates icebergs from bright floes inside the pack: targets
    embedded in ice are not detectable by contrast and are excluded, which
    matches operational practice (bergs matter where ships sail).
    """
    if scene.mission != "S1":
        raise ReproError("iceberg detection needs a Sentinel-1 scene")
    if contrast_db <= 0:
        raise ReproError("contrast_db must be positive")
    if background_window < 3:
        raise ReproError("background_window must be >= 3")
    vv = scene.grid.band(0)
    local_background = ndimage.median_filter(vv, size=background_window)
    water_level = float(np.quantile(vv, water_quantile))
    candidates = (vv > local_background + contrast_db) & (
        local_background <= water_level + water_margin_db
    )

    # 8-connectivity so a floe's edge fringe stays one (oversized, hence
    # rejected) component instead of fragmenting into berg-sized pieces.
    labelled, _ = ndimage.label(candidates, structure=np.ones((3, 3)))
    detections: List[IcebergDetection] = []
    transform = scene.grid.transform
    size = transform.pixel_size
    for component, box in enumerate(ndimage.find_objects(labelled), start=1):
        # Work on the component's bounding box padded by the ring width (2),
        # clipped at the scene edge: the dilation cannot reach further.
        top, left = max(box[0].start - 2, 0), max(box[1].start - 2, 0)
        window = (slice(top, box[0].stop + 2), slice(left, box[1].stop + 2))
        component_mask = labelled[window] == component
        rows, cols = np.nonzero(component_mask)
        if not (min_pixels <= rows.size <= max_pixels):
            continue
        # Open-water ring test: a true berg floats in water, so the pixels
        # immediately around it must be dark. A floe fragment (corner cap,
        # edge fringe) has bright ice next to it and is rejected here.
        ring = ndimage.binary_dilation(component_mask, iterations=2) & ~component_mask
        # Upper-quartile test: even a partially ice-adjacent fragment (e.g.
        # a floe corner whose ring is ~25% bright ice) fails this.
        if np.quantile(vv[window][ring], 0.75) > water_level + water_margin_db:
            continue
        rows += top
        cols += left
        min_x = transform.origin_x + cols.min() * size
        max_x = transform.origin_x + (cols.max() + 1) * size
        max_y = transform.origin_y - rows.min() * size
        min_y = transform.origin_y - (rows.max() + 1) * size
        outline = Polygon.box(min_x, min_y, max_x, max_y)
        centroid_x = transform.origin_x + (cols.mean() + 0.5) * size
        centroid_y = transform.origin_y - (rows.mean() + 0.5) * size
        detections.append(
            IcebergDetection(
                detection_id=f"d{scene.day_of_year:03d}_{component:04d}",
                outline=outline,
                centroid=Point(centroid_x, centroid_y),
                area_m2=float(rows.size * size * size),
                mean_backscatter_db=float(vv[rows, cols].mean()),
                day_of_year=scene.day_of_year,
            )
        )
    return detections


def track_icebergs(
    detection_series: Sequence[List[IcebergDetection]],
    max_drift_m: float = 5000.0,
) -> List[List[IcebergDetection]]:
    """Greedy nearest-centroid association across acquisitions.

    Returns tracks (lists of detections in time order). A detection starts a
    new track when no existing track's last position is within
    ``max_drift_m``.
    """
    if max_drift_m <= 0:
        raise ReproError("max_drift_m must be positive")
    tracks: List[List[IcebergDetection]] = []
    for detections in detection_series:
        unmatched = list(detections)
        # Match each open track to its nearest new detection.
        for track in tracks:
            last = track[-1]
            best = None
            best_distance = max_drift_m
            for detection in unmatched:
                dx = detection.centroid.x - last.centroid.x
                dy = detection.centroid.y - last.centroid.y
                distance = (dx * dx + dy * dy) ** 0.5
                if distance <= best_distance:
                    best = detection
                    best_distance = distance
            if best is not None:
                track.append(best)
                unmatched.remove(best)
        for detection in unmatched:
            tracks.append([detection])
    return tracks


def embed_truth_icebergs(
    truth: np.ndarray,
    count: int,
    seed: int = 0,
    berg_value: int = int(SeaIce.OLD_ICE),
    size_pixels: int = 2,
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Plant bright compact targets into an open-water truth field.

    Test/benchmark helper: returns the modified truth and the planted
    (row, col) positions so detector recall can be scored.
    """
    if count < 0:
        raise ReproError("count must be non-negative")
    rng = np.random.default_rng(seed)
    truth = np.asarray(truth).copy()
    height, width = truth.shape
    water = truth == int(SeaIce.OPEN_WATER)
    positions: List[Tuple[int, int]] = []
    attempts = 0
    while len(positions) < count and attempts < count * 50 + 50:
        attempts += 1
        row = int(rng.integers(size_pixels * 3, height - size_pixels * 3))
        col = int(rng.integers(size_pixels * 3, width - size_pixels * 3))
        region = water[
            row - size_pixels * 3 : row + size_pixels * 3,
            col - size_pixels * 3 : col + size_pixels * 3,
        ]
        if not region.all():
            continue  # needs open water around it to be detectable
        if any(abs(row - r) + abs(col - c) < size_pixels * 8 for r, c in positions):
            continue
        truth[row : row + size_pixels, col : col + size_pixels] = berg_value
        positions.append((row, col))
    return truth, positions
