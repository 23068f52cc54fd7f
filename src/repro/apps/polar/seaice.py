"""Sea-ice classification: WMO stage-of-development maps from Sentinel-1.

The second C1 architecture: a CNN over (VV, VH) SAR patches predicting the
:class:`~repro.raster.sentinel.SeaIce` stage. From the per-patch stages the
application derives the two operational products: **ice concentration**
(fraction of ice within an aggregation window) and the **ice type map**
resampled to the delivery resolution ("1 km or better").
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError
from repro.datasets.eurosat import Dataset
from repro.ml.distributed import DataParallelTrainer, TrainingReport
from repro.ml.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.ml.network import Sequential, classify_patches
from repro.ml.optimizers import SGD
from repro.raster.grid import GeoTransform, RasterGrid
from repro.raster.sentinel import SeaIce, SentinelScene, sentinel1_scene


def normalize_sar(data: np.ndarray) -> np.ndarray:
    """Scale backscatter dB (~[-30, 0]) to roughly unit range for the CNN."""
    return ((np.asarray(data, dtype=np.float32) + 20.0) / 10.0).astype(np.float32)


def build_ice_classifier(patch_size: int = 8, seed: int = 0) -> Sequential:
    """CNN over 2-band SAR patches -> 5 WMO stage classes."""
    if patch_size % 4 != 0:
        raise MLError("patch_size must be divisible by 4")
    reduced = patch_size // 4
    return Sequential(
        [
            Conv2D(2, 12, kernel_size=3, padding="same", seed=seed),
            ReLU(),
            MaxPool2D(2),
            Conv2D(12, 24, kernel_size=3, padding="same", seed=seed + 1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(24 * reduced * reduced, 48, seed=seed + 2),
            ReLU(),
            Dense(48, len(SeaIce), seed=seed + 3),
        ]
    )


def make_ice_training_set(
    samples: int = 600, patch_size: int = 8, seed: int = 0, looks: int = 4
) -> Dataset:
    """Labelled SAR patches: each dominated by one WMO stage, with speckle."""
    rng = np.random.default_rng(seed)
    x = np.empty((samples, 2, patch_size, patch_size), dtype=np.float32)
    y = np.empty(samples, dtype=np.int64)
    stages = list(SeaIce)
    for index in range(samples):
        label = int(rng.integers(0, len(stages)))
        truth = np.full((patch_size, patch_size), int(stages[label]), dtype=np.int16)
        speckles = rng.random((patch_size, patch_size)) < 0.05
        if speckles.any():
            truth[speckles] = int(stages[int(rng.integers(0, len(stages)))])
        scene = sentinel1_scene(
            truth, signatures="ice", looks=looks, seed=int(rng.integers(0, 2**31))
        )
        x[index] = normalize_sar(scene.grid.data)
        y[index] = label
    return Dataset(x, y, tuple(s.name for s in stages))


def train_ice_classifier(
    model: Sequential,
    dataset: Dataset,
    epochs: int = 3,
    batch_size: int = 32,
    lr: float = 0.05,
    workers: int = 1,
    strategy: str = "allreduce",
) -> TrainingReport:
    trainer = DataParallelTrainer(
        model,
        SGD(model.parameters(), lr=lr, momentum=0.9),
        workers=workers,
        strategy=strategy,
    )
    return trainer.fit(dataset.x, dataset.y, epochs=epochs, batch_size=batch_size)


def classify_ice_scene(
    model: Sequential, scene: SentinelScene, patch_size: int = 8
) -> np.ndarray:
    """Patch-wise WMO stage map at scene resolution."""
    return classify_patches(model, normalize_sar(scene.grid.data), patch_size)[0]


def ice_concentration_map(
    stage_map: np.ndarray, window: int = 8
) -> np.ndarray:
    """Fraction of non-open-water pixels per aggregation window."""
    if window < 1:
        raise MLError("window must be >= 1")
    stage_map = np.asarray(stage_map)
    rows = stage_map.shape[0] // window
    cols = stage_map.shape[1] // window
    if rows == 0 or cols == 0:
        raise MLError("window larger than map")
    cropped = stage_map[: rows * window, : cols * window]
    blocks = cropped.reshape(rows, window, cols, window)
    ice = blocks != int(SeaIce.OPEN_WATER)
    return ice.mean(axis=(1, 3))


def ice_type_map(
    stage_map: np.ndarray,
    scene_transform: GeoTransform,
    target_resolution_m: float = 1000.0,
) -> RasterGrid:
    """Resample the stage map to the delivery resolution (mode aggregation)."""
    if target_resolution_m < scene_transform.pixel_size:
        raise MLError("target resolution finer than the scene")
    factor = max(1, int(round(target_resolution_m / scene_transform.pixel_size)))
    grid = RasterGrid(stage_map.astype(np.int16), scene_transform)
    return grid.resample(factor, method="mode")
