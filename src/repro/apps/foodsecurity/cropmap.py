"""Crop-type classification and field-boundary extraction.

The Food Security arm of Challenge C1: "scalable deep learning techniques
... will be used to derive field boundaries and crop types, making it
possible for the processing chains to include this information as linked
data on a large scale".

The classifier is a small CNN over 13-band patches; scenes are classified
patch-wise, and contiguous same-crop regions become field polygons.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.errors import MLError
from repro.datasets.eurosat import Dataset
from repro.geometry import Polygon
from repro.ml.distributed import DataParallelTrainer, TrainingReport
from repro.ml.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.ml.network import Sequential, classify_patches
from repro.ml.optimizers import SGD
from repro.raster.grid import RasterGrid
from repro.raster.sentinel import S2_BANDS, SentinelScene


def build_crop_classifier(
    num_classes: int, patch_size: int = 8, bands: int = S2_BANDS, seed: int = 0
) -> Sequential:
    """A compact CNN: conv-pool-conv-pool-dense over (bands, p, p) patches."""
    if patch_size % 4 != 0:
        raise MLError("patch_size must be divisible by 4 (two pooling stages)")
    reduced = patch_size // 4
    return Sequential(
        [
            Conv2D(bands, 16, kernel_size=3, padding="same", seed=seed),
            ReLU(),
            MaxPool2D(2),
            Conv2D(16, 32, kernel_size=3, padding="same", seed=seed + 1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(32 * reduced * reduced, 64, seed=seed + 2),
            ReLU(),
            Dense(64, num_classes, seed=seed + 3),
        ]
    )


def train_crop_classifier(
    model: Sequential,
    dataset: Dataset,
    epochs: int = 3,
    batch_size: int = 32,
    lr: float = 0.05,
    workers: int = 1,
    strategy: str = "allreduce",
) -> TrainingReport:
    """Train with (optionally distributed) synchronous SGD."""
    trainer = DataParallelTrainer(
        model,
        SGD(model.parameters(), lr=lr, momentum=0.9),
        workers=workers,
        strategy=strategy,
    )
    return trainer.fit(dataset.x, dataset.y, epochs=epochs, batch_size=batch_size)


def classify_scene(
    model: Sequential, scene: SentinelScene, patch_size: int = 8
) -> np.ndarray:
    """Classify a scene patch-wise; returns a (rows, cols) crop-class map.

    Edge strips narrower than a patch are classified from one more patch
    flush with the scene edge (see :func:`~repro.ml.network.classify_patches`).
    """
    return classify_patches(model, scene.grid.data, patch_size)[0]


def extract_fields(
    crop_map: np.ndarray,
    grid: RasterGrid,
    min_pixels: int = 16,
    crop_classes: Optional[Tuple[int, ...]] = None,
) -> List[Tuple[Polygon, int]]:
    """Field boundaries: connected same-crop components as polygons.

    Returns (boundary polygon, crop class) pairs for components of at least
    ``min_pixels``. Boundaries are the component bounding boxes in map
    coordinates — the level of detail parcel registers carry.
    """
    fields: List[Tuple[Polygon, int]] = []
    classes = crop_classes if crop_classes is not None else tuple(
        int(v) for v in np.unique(crop_map)
    )
    size = grid.transform.pixel_size
    for crop in classes:
        mask = crop_map == crop
        if not mask.any():
            continue
        labelled, count = ndimage.label(mask)
        for component in range(1, count + 1):
            rows, cols = np.nonzero(labelled == component)
            if rows.size < min_pixels:
                continue
            min_x = grid.transform.origin_x + cols.min() * size
            max_x = grid.transform.origin_x + (cols.max() + 1) * size
            max_y = grid.transform.origin_y - rows.min() * size
            min_y = grid.transform.origin_y - (rows.max() + 1) * size
            fields.append((Polygon.box(min_x, min_y, max_x, max_y), int(crop)))
    return fields
