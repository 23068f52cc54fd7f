"""E24 bench: chunk pruning and tiled compute on the data cube.

Builds a seeded cube (Sentinel-2 red/NIR over a procedurally generated
land-cover field, one scene per acquisition day), then measures

* **chunk pruning** — seeded bbox/time-window selections: how many chunks
  the planner touches vs the cube's sealed total (the ratio a full
  scene-at-a-time scan pays);
* **oracle parity** — every selection materialized via the chunk path must
  equal the dense in-memory ndarray oracle exactly;
* **tiled vs whole-scene wall clock** — a windowed temporal mean computed
  by streaming pruned chunks vs materializing the whole cube and slicing;
* **zonal series** — seeded hexagonal fields, planned per polygon: the
  per-field means must match full-grid masks applied to the dense oracle,
  and the call must read fewer chunks than the variable has sealed;
* **append-only storage** — after ingest, no chunk path was written twice;
* **reopen parity** — the cube opened through a fresh ``ChunkStore`` over
  the same filesystem reads every variable equal to the oracle.

``python -m repro.datacube.bench`` runs the full configuration;
``--smoke`` a CI-sized one. Both write ``BENCH_E24.json`` (in
``$REPRO_OBS_DIR``) and exit non-zero when :func:`verify_report` — the E24
acceptance gate, shared with ``benchmarks/bench_e24_datacube.py`` — fails.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import DatacubeError
from repro.geometry import Polygon
from repro.obs import Observability
from repro.raster.grid import GeoTransform
from repro.raster.sentinel import landcover_field, sentinel2_scene
from repro.raster.stats import polygon_masks
from repro.datacube.cube import Cube, CubeSchema
from repro.datacube.ingest import CubeIngestor, S2_DEFAULT_VARIABLES
from repro.datacube.storage import ChunkStore
from repro.soak import Gate, run_cli

#: Metrics a ``BENCH_E24.json`` must carry (checked where it is written).
REQUIRED_METRICS = (
    "datacube.appends", "datacube.seals", "datacube.chunks_pruned",
    "datacube.chunks_read", "datacube.store_puts",
)


@dataclass(frozen=True)
class DatacubeBenchConfig:
    seed: int = 24
    height: int = 256
    width: int = 256
    steps: int = 24
    chunk_t: int = 8
    chunk_y: int = 64
    chunk_x: int = 64
    pixel_size: float = 10.0
    queries: int = 40

    def __post_init__(self) -> None:
        if self.steps < self.chunk_t:
            raise DatacubeError("bench needs at least one full time slab")
        if self.queries < 1:
            raise DatacubeError("bench needs >= 1 query")


SMOKE = DatacubeBenchConfig(height=160, width=160, steps=12, chunk_t=4,
                            queries=20)


def build_cube(config: DatacubeBenchConfig, obs: Optional[Observability] = None):
    """Ingest the seeded scene series; returns (cube, oracle, days)."""
    transform = GeoTransform(0.0, 0.0, config.pixel_size)
    schema = CubeSchema(
        transform=transform,
        height=config.height,
        width=config.width,
        variables=("red", "nir"),
        chunk_t=config.chunk_t,
        chunk_y=config.chunk_y,
        chunk_x=config.chunk_x,
    )
    store = ChunkStore(obs=obs)
    cube = Cube.create(store, "/cubes/bench_e24", schema, obs=obs)
    ingestor = CubeIngestor(cube, variables=S2_DEFAULT_VARIABLES, obs=obs)
    truth = landcover_field(config.height, config.width, seed=config.seed)
    days = [15 * (index + 1) for index in range(config.steps)]
    oracle: Dict[str, List[np.ndarray]] = {"red": [], "nir": []}
    for index, day in enumerate(days):
        scene = sentinel2_scene(
            truth, day_of_year=day, seed=config.seed + index,
            pixel_size=config.pixel_size,
        )
        ingestor.ingest_scene(scene)
        oracle["red"].append(scene.grid.band(3).astype("float32"))
        oracle["nir"].append(scene.grid.band(7).astype("float32"))
    dense = {name: np.stack(slabs) for name, slabs in oracle.items()}
    return cube, dense, days


def oracle_select(dense: np.ndarray, days: Sequence[int],
                  transform: GeoTransform, t_min: float, t_max: float,
                  bbox) -> np.ndarray:
    """Independent dense-ndarray selection (mirrors the test-suite oracle)."""
    times = np.asarray(days, dtype=float)
    t_mask = (times >= t_min) & (times <= t_max)
    _, height, width = dense.shape
    size = transform.pixel_size
    min_x, min_y, max_x, max_y = bbox
    col_centers = transform.origin_x + (np.arange(width) + 0.5) * size
    row_centers = transform.origin_y - (np.arange(height) + 0.5) * size
    cols = (col_centers >= min_x) & (col_centers <= max_x)
    rows = (row_centers >= min_y) & (row_centers <= max_y)
    return dense[np.ix_(t_mask, rows, cols)]


def seeded_queries(config: DatacubeBenchConfig, days: Sequence[int],
                   transform: GeoTransform):
    """Seeded (variable, t_min, t_max, bbox) selections, windowed & skewed."""
    rng = random.Random(config.seed)
    size = transform.pixel_size
    for _ in range(config.queries):
        variable = rng.choice(("red", "nir"))
        lo = rng.randrange(len(days))
        hi = min(len(days) - 1, lo + rng.randrange(1, max(2, len(days) // 3)))
        width_px = rng.randrange(config.width // 8, config.width // 2)
        height_px = rng.randrange(config.height // 8, config.height // 2)
        col0 = rng.randrange(0, config.width - width_px)
        row0 = rng.randrange(0, config.height - height_px)
        min_x = transform.origin_x + col0 * size
        max_x = transform.origin_x + (col0 + width_px) * size
        max_y = transform.origin_y - row0 * size
        min_y = transform.origin_y - (row0 + height_px) * size
        yield variable, float(days[lo]), float(days[hi]), (min_x, min_y, max_x, max_y)


def seeded_fields(config: DatacubeBenchConfig,
                  transform: GeoTransform) -> List[Polygon]:
    """Four seeded hexagonal fields, each about a tenth of the grid across."""
    rng = random.Random(f"{config.seed}:fields")  # not seeded_queries' stream
    extent_x = config.width * transform.pixel_size
    extent_y = config.height * transform.pixel_size
    return [
        Polygon.regular(
            transform.origin_x + rng.uniform(0.15, 0.85) * extent_x,
            transform.origin_y - rng.uniform(0.15, 0.85) * extent_y,
            0.06 * min(extent_x, extent_y), 6,
        )
        for _ in range(4)
    ]


def run_datacube_bench(config: DatacubeBenchConfig,
                       obs: Optional[Observability] = None) -> Dict:
    obs = obs if obs is not None else Observability()
    cube, dense, days = build_cube(config, obs=obs)
    transform = cube.schema.transform

    touched = 0
    total = 0
    parity_checked = 0
    parity_equal = 0
    for variable, t_min, t_max, bbox in seeded_queries(config, days, transform):
        plan = cube.sel(variable, t_min, t_max, bbox)
        touched += plan.chunks_touched
        total += plan.chunks_total
        expected = oracle_select(dense[variable], days, transform,
                                 t_min, t_max, bbox)
        got = plan.read()
        parity_checked += 1
        if got.shape == expected.shape and np.array_equal(got, expected):
            parity_equal += 1
    pruning_ratio = total / touched if touched else float("inf")

    # Tiled windowed temporal mean vs whole-cube materialize-then-slice.
    t_min, t_max = float(days[0]), float(days[len(days) // 3])
    bbox = (
        transform.origin_x,
        transform.origin_y - (config.height // 3) * config.pixel_size,
        transform.origin_x + (config.width // 3) * config.pixel_size,
        transform.origin_y,
    )
    start = _time.perf_counter()
    tiled = cube.sel("nir", t_min, t_max, bbox).reduce_time("mean")
    tiled_s = _time.perf_counter() - start
    start = _time.perf_counter()
    whole = cube.sel("nir").read()  # the scene-at-a-time full scan
    expected_mean = oracle_select(
        dense["nir"], days, transform, t_min, t_max, bbox
    ).mean(axis=0)
    times = np.asarray(days, dtype=float)
    t_mask = (times >= t_min) & (times <= t_max)
    whole_mean = whole[t_mask][:, : config.height // 3, : config.width // 3].mean(axis=0)
    whole_s = _time.perf_counter() - start
    mean_parity = bool(
        np.allclose(tiled, expected_mean, rtol=1e-6, atol=1e-7)
        and np.allclose(whole_mean, expected_mean, rtol=1e-6, atol=1e-7)
    )

    # Zonal series over the seeded fields vs full-grid masks on the oracle.
    fields = seeded_fields(config, transform)
    chunks_read = obs.metrics.counter("datacube.chunks_read")
    read_before = chunks_read.value
    series = cube.zonal_series("nir", fields)
    zonal_chunks_read = chunks_read.value - read_before
    masks = polygon_masks(fields, transform, (config.height, config.width))
    slabs = dense["nir"].astype(np.float64)
    expected_series = np.array([
        [slab[mask].mean() if mask.any() else np.nan for slab in slabs]
        for mask in masks
    ])
    zonal_parity = bool(
        series.shape == expected_series.shape
        and np.allclose(series, expected_series, rtol=1e-9, equal_nan=True)
    )

    # Any store over the same filesystem reads what this one wrote.
    reopened = Cube.open(ChunkStore(fs=cube.store.fs), cube.root)
    reopen_parity = all(
        np.array_equal(reopened.sel(variable).read(), dense[variable])
        for variable in cube.schema.variables
    )

    max_path_writes = max(cube.store.writes.values())
    report = {
        "experiment": "E24",
        "seed": config.seed,
        "steps": config.steps,
        "grid": f"{config.height}x{config.width}",
        "chunk_shape": [config.chunk_t, config.chunk_y, config.chunk_x],
        "sealed_chunks": cube.sealed_chunks,
        "queries": config.queries,
        "chunks_total": total,
        "chunks_touched": touched,
        "pruning_ratio": round(pruning_ratio, 3),
        "parity_checked": parity_checked,
        "parity_equal": parity_equal,
        "mean_parity": mean_parity,
        "tiled_s": round(tiled_s, 6),
        "whole_s": round(whole_s, 6),
        "speedup": round(whole_s / tiled_s, 3) if tiled_s > 0 else float("inf"),
        "max_path_writes": max_path_writes,
        "zonal_parity": zonal_parity,
        "zonal_chunks_read": zonal_chunks_read,
        "zonal_chunks_total": cube.sealed_chunks // len(cube.schema.variables),
        "reopen_parity": reopen_parity,
    }
    return report


def verify_report(report: Dict) -> None:
    """The E24 acceptance gate; raises naming every violated criterion."""
    with Gate(DatacubeError) as check:
        check("pruning ratio", report["pruning_ratio"], ">", 1.0)
        check("selections checked against the oracle",
              report["parity_checked"], ">", 0)
        check("oracle parity: equal vs checked",
              report["parity_equal"], "==", report["parity_checked"])
        check.that(report["mean_parity"], "tiled mean diverged from oracle")
        check("writes to the most-written chunk path",
              report["max_path_writes"], "==", 1)
        # Windowed tiled aggregation beats materializing the whole cube.
        check("tiled mean vs whole-cube scan (s)",
              report["tiled_s"], "<", report["whole_s"])
        check.that(report["zonal_parity"],
                   "zonal parity: series diverged from full-grid masks on the oracle")
        check("zonal chunks read < total",
              report["zonal_chunks_read"], "<", report["zonal_chunks_total"])
        check.that(report["reopen_parity"],
                   "reopen parity: a fresh store read other values")


def _scenario(smoke: bool, seed: int, _size: None):
    config = replace(SMOKE if smoke else DatacubeBenchConfig(), seed=seed)
    obs = Observability()
    report = run_datacube_bench(config, obs=obs)
    verify_report(report)
    return obs, [("E24", report)], report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.datacube.bench [--smoke] [--seed N]``"""
    return run_cli(
        "E24", "datacube bench: chunk pruning, oracle parity, tiled compute",
        _scenario, seed=DatacubeBenchConfig.seed, require=REQUIRED_METRICS,
        argv=argv,
    )


if __name__ == "__main__":
    raise SystemExit(main())
