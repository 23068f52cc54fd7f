"""Workload 5: scene -> cube -> ``sel()`` -> zonal series, on HopsFS.

The paper's second product path. A ``Cube`` sits on
``ChunkStore(HopsFS(ShardedKVStore(4 shards, WAL on)))`` with block-layout
chunks; a ``CubeIngestor`` with a catalogue ``GeoStore`` registers each
scene's ``Product``. One *step* is 1 ``ingest_scene``, 8 windowed
``sel().read()``, 1 ``zonal_series`` over 8 polygons and 1
``ndvi_temporal_mean`` on a third-of-the-grid window; a round is one time
slab of steps, so every round seals exactly once. Reads look at the trailing
``window_steps`` time steps only, which keeps a round's work constant as the
cube grows.
"""

from __future__ import annotations

import random
import time
from datetime import datetime, timedelta
from typing import Dict, List, Optional

import numpy as np

from repro.datacube import ChunkStore, Cube, CubeIngestor, CubeSchema
from repro.datacube.bench import DatacubeBenchConfig, oracle_select, seeded_queries
from repro.datacube.chunk import decode_chunk, encode_chunk
from repro.datacube.ingest import scene_window
from repro.durability import DurabilityLayer
from repro.geometry import Polygon
from repro.geosparql import GeoStore
from repro.hopsfs import HopsFS, ShardedKVStore
from repro.raster.grid import GeoTransform
from repro.raster.products import Mission, Product, ProductLevel
from repro.raster.sentinel import landcover_field, sentinel2_scene
from repro.raster.stats import polygon_masks, rasterize_polygon

from bench import stats
from bench.harness import State, Workload
from bench.spans import Recorder

ROOT = "/cubes/bench"
PIXEL = 10.0
RED_BAND, NIR_BAND = 3, 7  #: S2_DEFAULT_VARIABLES' band indices
#: Every this-many-th read is compared with the dense ndarray oracle. A step
#: holds 10 reads, so a stride of 11 rotates the check over all three kinds.
ORACLE_EVERY = 11
#: The cube sums float32 slabs where the oracle sums float64: means agree to
#: about 100 float32 epsilons, exact reads must agree bit for bit.
MEAN_RTOL = 1e-5


#: The filesystem calls the cube path makes (``makedirs`` goes through
#: ``mkdir``, ``exists`` through ``stat``).
FS_CALLS = ("mkdir", "create", "read", "stat", "listdir")


def _spanned(name: str):
    """An override of ``HopsFS.<name>`` that runs inside a span."""
    inner = getattr(HopsFS, name)

    def method(self, *args, **kwargs):
        self.fs_ops += 1
        with self._rec.span(f"hopsfs.{name}"):
            return inner(self, *args, **kwargs)

    method.__name__ = name
    return method


class TracedHopsFS(HopsFS):
    """HopsFS with a span around every filesystem call (traced run only)."""

    def __init__(self, rec: Recorder, **kwargs):
        self._rec = rec
        self.fs_ops = 0
        super().__init__(**kwargs)

    mkdir, create, read, stat, listdir = (_spanned(name) for name in FS_CALLS)


class TracedChunkStore(ChunkStore):
    """ChunkStore with spans and byte counts (traced run only)."""

    def __init__(self, rec: Recorder, **kwargs):
        super().__init__(**kwargs)
        self._rec = rec
        self.bytes_read = 0
        self.bytes_written = 0

    def put(self, path: str, payload: bytes) -> None:
        self.bytes_written += len(payload)
        with self._rec.span("datacube.store"):
            super().put(path, payload)

    def get(self, path: str) -> bytes:
        with self._rec.span("datacube.store"):
            payload = super().get(path)
        self.bytes_read += len(payload)
        return payload


class CubeState(State):
    def __init__(self) -> None:
        super().__init__()
        self.steps = 0  #: time steps ingested so far
        self.reads = 0
        self.reopened = False
        self.sel_chunks: List[int] = []
        self.sel_total: List[int] = []
        self.sel_bytes: List[int] = []


class CubePipeline(Workload):
    name = "cube_pipeline"
    setup_repeats = 3
    rounds_per_second = 1.5
    FULL = {"height": 512, "width": 512, "scenes": 8, "chunk_t": 8,
            "chunk_y": 64, "chunk_x": 64, "prefill_slabs": 2,
            "sels_per_step": 8, "polygons": 8, "window_steps": 24,
            "small_file_threshold": 64 * 1024}
    # 4x32x32 float32 chunks are 16 KB, so the threshold drops to keep the
    # chunks block-layout at smoke sizes too.
    SMOKE = {"height": 128, "width": 128, "scenes": 4, "chunk_t": 4,
             "chunk_y": 32, "chunk_x": 32, "prefill_slabs": 1,
             "sels_per_step": 8, "polygons": 4, "window_steps": 8,
             "small_file_threshold": 4 * 1024}

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def generate(self) -> None:
        size = self.size
        height, width = size["height"], size["width"]
        truth = landcover_field(height, width, seed=self.seed)
        self.scenes = [
            sentinel2_scene(truth, day_of_year=15 * (index + 1),
                            seed=self.seed * 1000 + index, pixel_size=PIXEL)
            for index in range(size["scenes"])
        ]
        #: The dense oracle's per-scene slabs, as the cube must store them.
        self.dense = [
            {"red": scene.grid.band(RED_BAND).astype("float32"),
             "nir": scene.grid.band(NIR_BAND).astype("float32")}
            for scene in self.scenes
        ]
        self.transform = GeoTransform(0.0, 0.0, PIXEL)
        self.schema = CubeSchema(
            transform=self.transform, height=height, width=width,
            variables=("red", "nir"), chunk_t=size["chunk_t"],
            chunk_y=size["chunk_y"], chunk_x=size["chunk_x"],
        )
        rng = random.Random(f"{self.seed}:{self.name}:polygons")
        extent_x, extent_y = width * PIXEL, height * PIXEL
        self.polygons = []
        for _ in range(size["polygons"]):
            # Six-sided fields, each about a tenth of the grid across.
            cx = rng.uniform(0.15, 0.85) * extent_x
            cy = -rng.uniform(0.15, 0.85) * extent_y
            rx, ry = 0.06 * extent_x, 0.06 * extent_y
            self.polygons.append(Polygon([
                (cx - rx, cy), (cx - rx / 2, cy + ry), (cx + rx / 2, cy + ry),
                (cx + rx, cy), (cx + rx / 2, cy - ry), (cx - rx / 2, cy - ry),
            ]))
        self.third = (0.0, -(height // 3) * PIXEL, (width // 3) * PIXEL, 0.0)
        self.footprint = self.scenes[0].grid.footprint

    def product(self, step: int) -> Product:
        return Product(
            product_id=f"S2-{self.seed}-{step:06d}", mission=Mission.SENTINEL2,
            product_type="MSIL2A", level=ProductLevel.L2A,
            sensing_time=datetime(2017, 1, 1) + timedelta(hours=step),
            footprint=self.footprint, size_bytes=1_200_000_000,
        )

    def sizes(self) -> Dict[str, object]:
        size = self.size
        chunk_bytes = 4 * size["chunk_t"] * size["chunk_y"] * size["chunk_x"]
        return {**size, "chunk_bytes": chunk_bytes, "variables": 2,
                "ops_per_step": size["sels_per_step"] + 3,
                "steps_per_round": size["chunk_t"]}

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def setup(self, rec: Optional[Recorder], obs) -> CubeState:
        state = CubeState()
        state.rec = rec
        kv = ShardedKVStore(
            shard_count=4, durability=DurabilityLayer(obs=obs), obs=obs
        )
        threshold = self.size["small_file_threshold"]
        if rec is None:
            fs = HopsFS(store=kv, small_file_threshold=threshold, obs=obs)
            state.chunks = ChunkStore(fs=fs, obs=obs)
        else:
            fs = TracedHopsFS(rec, store=kv, small_file_threshold=threshold, obs=obs)
            state.chunks = TracedChunkStore(rec, fs=fs, obs=obs)
        state.fs = fs
        state.obs = obs
        state.catalogue = GeoStore()
        state.cube = Cube.create(state.chunks, ROOT, self.schema, obs=obs)
        self.attach(state)
        for _ in range(self.size["prefill_slabs"] * self.size["chunk_t"]):
            self.ingest(state)
        for variable, t_min, t_max, bbox in self.queries(state, -1):
            state.cube.sel(variable, t_min, t_max, bbox).read()  # warm-up
        fs.store.reset_accounting()
        if rec is not None:
            rec.reset()
            fs.fs_ops = 0
            state.chunks.bytes_read = state.chunks.bytes_written = 0
        state.wal_bytes_before = kv.durability.total_bytes
        state.wal_records_before = kv.durability.total_records
        self.bind(state, rec)
        return state

    def attach(self, state: CubeState) -> None:
        state.ingestor = CubeIngestor(
            state.cube, store=state.catalogue, obs=state.obs
        )

    def bind(self, state: CubeState, rec: Optional[Recorder]) -> None:
        names = ("ingest", "sel", "zonal", "ndvi", "reopen")
        for name in names:
            call = getattr(self, name)
            if rec is not None:
                call = rec.wrap(f"op.{name}", call)
            setattr(state, f"do_{name}", call)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def ingest(self, state: CubeState) -> None:
        step = state.steps
        state.ingestor.ingest_scene(
            self.scenes[step % len(self.scenes)], time=float(step + 1),
            product=self.product(step),
        )
        state.steps = step + 1

    def sel(self, state: CubeState, query):
        variable, t_min, t_max, bbox = query
        if state.rec is None:
            return state.cube.sel(variable, t_min, t_max, bbox).read()
        rec, chunks = state.rec, state.chunks
        with rec.span("datacube.sel_plan"):
            plan = state.cube.sel(variable, t_min, t_max, bbox)
        before = chunks.bytes_read
        with rec.span("datacube.read"):
            array = plan.read()
        state.sel_chunks.append(plan.chunks_touched)
        state.sel_total.append(plan.chunks_total)
        state.sel_bytes.append(chunks.bytes_read - before)
        return array

    def zonal(self, state: CubeState, window):
        return state.cube.zonal_series("nir", self.polygons, *window)

    def ndvi(self, state: CubeState, window):
        return state.cube.ndvi_temporal_mean("red", "nir", *window, self.third)

    def reopen(self, state: CubeState) -> None:
        """Close the cube and re-attach from storage (tail is empty here)."""
        state.cube = Cube.open(state.chunks, ROOT, obs=state.obs)
        self.attach(state)
        state.reopened = True

    def window_days(self, state: CubeState) -> List[float]:
        first = max(0, state.steps - self.size["window_steps"])
        return [float(step + 1) for step in range(first, state.steps)]

    def queries(self, state: CubeState, step: int):
        """The step's windowed selections, from the program's own generator."""
        size = self.size
        days = self.window_days(state)
        config = DatacubeBenchConfig(
            seed=self.seed * 1_000_003 + step, height=size["height"],
            width=size["width"], steps=max(len(days), size["chunk_t"]),
            chunk_t=size["chunk_t"], queries=size["sels_per_step"],
        )
        return list(seeded_queries(config, days, self.transform))

    def prepare_round(self, state: CubeState, index: int):
        return index

    def run_round(self, state: CubeState, index: int, latencies: List[float]) -> int:
        attempted = 0
        if index == 1:
            attempted += self.attempt(state, state.do_reopen, None, None)
        for _ in range(self.size["chunk_t"]):
            with state.pause:
                queries = self.queries(state, state.steps)
                days = self.window_days(state)
                window = (days[0], days[-1])
            attempted += self.attempt(state, state.do_ingest, None, None)
            for query in queries:
                attempted += self.attempt(state, state.do_sel, query, latencies,
                                          ("sel", query))
            attempted += self.attempt(state, state.do_zonal, window, latencies,
                                      ("zonal", window))
            attempted += self.attempt(state, state.do_ndvi, window, latencies,
                                      ("ndvi", window))
        return attempted

    def attempt(self, state: CubeState, call, argument, latencies, check=None) -> int:
        """One operation: time it, survive it, and check every tenth read."""
        started = time.perf_counter()
        try:
            result = call(state, argument) if argument is not None else call(state)
        except Exception as error:  # the op loop must outlive a failed op
            state.failed += 1
            state.violations.append(f"operation raised: {error!r}")
            return 1
        if latencies is not None:
            latencies.append((time.perf_counter() - started) * 1e3)
            state.reads += 1
            if state.reads % ORACLE_EVERY == 0:
                with state.pause:
                    state.checks += 1
                    if not self.matches(state, result, *check):
                        state.failed += 1
        return 1

    def finish(self, state: CubeState, latencies: List[float]) -> int:
        # A one-round pass never reached the mid-run re-open; do it here.
        extra = 0 if state.reopened else self.attempt(state, state.do_reopen, None, None)
        if max(state.chunks.writes.values()) != 1:
            state.violations.append("a chunk path was written more than once")
        return extra

    # ------------------------------------------------------------------
    # Dense oracle
    # ------------------------------------------------------------------

    def dense_window(self, state: CubeState, variable: str, days: List[float]):
        scenes = len(self.dense)
        window = np.stack([
            self.dense[(int(day) - 1) % scenes][variable] for day in days
        ])
        return window + 1.0 if self.corrupt_oracle else window

    def matches(self, state: CubeState, result, kind: str, argument) -> bool:
        # Checked right after the read, before the next ingest: the time
        # axis is still the one the read saw.
        days = [float(step + 1) for step in range(state.steps)]
        if kind == "sel":
            variable, t_min, t_max, bbox = argument
            days = [day for day in days if t_min <= day <= t_max]
            expected = oracle_select(
                self.dense_window(state, variable, days), days, self.transform,
                t_min, t_max, bbox,
            )
            return result.shape == expected.shape and np.array_equal(result, expected)
        t_min, t_max = argument
        days = [day for day in days if t_min <= day <= t_max]
        red = self.dense_window(state, "red", days).astype(np.float64)
        nir = self.dense_window(state, "nir", days).astype(np.float64)
        if kind == "zonal":
            masks = polygon_masks(
                self.polygons, self.transform, (self.size["height"], self.size["width"])
            )
            expected = np.array([
                [slab[mask].mean() if mask.any() else np.nan for slab in nir]
                for mask in masks
            ])
            return result.shape == expected.shape and np.allclose(
                result, expected, rtol=MEAN_RTOL, equal_nan=True
            )
        rows, cols = self.size["height"] // 3, self.size["width"] // 3
        red, nir = red[:, :rows, :cols], nir[:, :rows, :cols]
        total = nir + red
        index = np.where(total == 0.0, 0.0, (nir - red) / np.where(total == 0.0, 1.0, total))
        expected = index.mean(axis=0)
        return result.shape == expected.shape and np.allclose(
            result, expected, rtol=MEAN_RTOL, atol=1e-6
        )

    # ------------------------------------------------------------------
    # Layer metrics
    # ------------------------------------------------------------------

    def layers(self, state: CubeState, rec: Recorder, obs) -> Dict[str, float]:
        kv = state.fs.store
        durability = kv.durability
        wal_bytes = durability.total_bytes - state.wal_bytes_before
        block = np.ascontiguousarray(
            self.dense_window(state, "nir", [1.0] * self.size["chunk_t"])[
                :, : self.size["chunk_y"], : self.size["chunk_x"]
            ]
        )
        payload = encode_chunk(block)
        shape = (self.size["height"], self.size["width"])
        return {
            "datacube.ingest_ms_per_scene": rec.mean_ms("op.ingest"),
            "datacube.sel_plan_us": 1e3 * rec.mean_ms("datacube.sel_plan"),
            "datacube.read_ms_per_sel": rec.mean_ms("datacube.read"),
            "datacube.chunks_touched_per_sel": stats.mean(state.sel_chunks),
            "datacube.pruning_ratio": stats.ratio(
                sum(state.sel_total), sum(state.sel_chunks)),
            "datacube.bytes_read_per_sel": stats.mean(state.sel_bytes),
            "datacube.zonal_ms": rec.mean_ms("op.zonal"),
            "datacube.reduce_ms": rec.mean_ms("op.ndvi"),
            "datacube.open_ms": rec.mean_ms("op.reopen"),
            "datacube.encode_us_per_chunk": _each_us(lambda: encode_chunk(block), 200),
            "datacube.decode_us_per_chunk": _each_us(lambda: decode_chunk(payload), 200),
            "raster.window_ms_per_scene": 1e-3 * _each_us(
                lambda: scene_window(self.scenes[0], state.cube), 20),
            "raster.rasterize_ms_per_polygon": 1e-3 * _each_us(
                lambda: rasterize_polygon(self.polygons[0], self.transform, shape), 10),
            **{f"hopsfs.{op}_us": 1e3 * rec.mean_ms(f"hopsfs.{op}")
               for op in ("create", "stat", "read", "listdir")},
            "hopsfs.kv_ops_per_fs_op": stats.ratio(kv.op_count, state.fs.fs_ops),
            "hopsfs.multi_shard_share": kv.multi_shard_fraction,
            "hopsfs.ops_per_s_sim": kv.ops_per_second(),
            "hopsfs.self_share_of_ingest": stats.ratio(
                sum(rec.total_s(f"hopsfs.{op}", root="op.ingest") for op in FS_CALLS),
                rec.total_s("op.ingest")),
            "durability.wal_bytes_per_user_byte": stats.ratio(
                wal_bytes, state.chunks.bytes_written),
            "durability.wal_records": durability.total_records - state.wal_records_before,
        }


def _each_us(call, repeats: int) -> float:
    """Mean microseconds of *call* over *repeats* runs (a layer micro-timing)."""
    started = time.perf_counter()
    for _ in range(repeats):
        call()
    return 1e6 * (time.perf_counter() - started) / repeats
