"""The Earth System Data Cube (experiment E24).

A :class:`Cube` is a chunked, multi-variate, time-indexed array assembled
from :mod:`repro.raster` scenes on a common grid — the CAB-LAB / Open Data
Cube abstraction the paper's "Extreme Earth analytics" vision needs:
continental multi-year archives queried by variable, time window, and
bounding box instead of scene by scene.

Layout
------
Every variable is split into dense ``(chunk_t, chunk_y, chunk_x)`` slabs.
Spatial chunking is fixed by the :class:`CubeSchema`; the time axis grows
**append-only**: incoming time steps buffer in an in-memory tail until a
full time slab accumulates, then the slab is *sealed* — each spatial chunk
serialized through :class:`~repro.datacube.storage.ChunkStore` to HopsFS
(E20 checksums/scrub and E17 replica-fallback reads apply unchanged) next
to a per-chunk :class:`~repro.datacube.chunk.ChunkProvenance` record.
Sealed chunks are immutable; appending more time steps only ever creates
new files, which the chunk store enforces and tests pin via its per-path
write counter.

Queries
-------
:meth:`Cube.sel` is lazy: it returns a :class:`SlicePlan` naming exactly
the chunks a ``(variable, time window, bbox)`` selection touches — chunk
pruning happens against the in-memory index *before any I/O*. The plan
then materializes (:meth:`SlicePlan.read`) or streams chunk-sized blocks
through tiled map/reduce compute (:meth:`SlicePlan.reduce_time`,
:meth:`Cube.ndvi_temporal_mean`, :meth:`Cube.anomaly_counts`,
:meth:`Cube.zonal_series`) so a continental aggregation never materializes
the full dense slab.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import DatacubeError
from repro.geometry import BoundingBox, Polygon
from repro.obs import Observability, resolve
from repro.raster.grid import GeoTransform, Window, pixel_window
from repro.raster.stats import polygon_window_mask
from repro.datacube.chunk import (
    ChunkKey,
    ChunkProvenance,
    chunk_path,
    decode_chunk,
    encode_chunk,
    provenance_path,
)
from repro.datacube.storage import ChunkStore

BBoxLike = Union[BoundingBox, Tuple[float, float, float, float]]


@dataclass(frozen=True)
class CubeSchema:
    """The fixed geometry of a cube: grid, variables, chunk shape, dtype."""

    transform: GeoTransform
    height: int
    width: int
    variables: Tuple[str, ...]
    chunk_t: int = 8
    chunk_y: int = 64
    chunk_x: int = 64
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0:
            raise DatacubeError("cube extent must be positive")
        if self.chunk_t < 1 or self.chunk_y < 1 or self.chunk_x < 1:
            raise DatacubeError("chunk shape must be >= 1 in every axis")
        if not self.variables:
            raise DatacubeError("a cube needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise DatacubeError(f"duplicate variables: {self.variables}")
        for variable in self.variables:
            if not variable or "/" in variable:
                raise DatacubeError(f"bad variable name {variable!r}")
        np.dtype(self.dtype)  # raises TypeError on nonsense early

    @property
    def y_chunks(self) -> int:
        return (self.height + self.chunk_y - 1) // self.chunk_y

    @property
    def x_chunks(self) -> int:
        return (self.width + self.chunk_x - 1) // self.chunk_x

    def chunk_window(self, key: ChunkKey) -> Tuple[int, int, int, int]:
        """Pixel window ``(row0, row1, col0, col1)`` of a spatial chunk."""
        row0 = key.y * self.chunk_y
        col0 = key.x * self.chunk_x
        return (
            row0,
            min(row0 + self.chunk_y, self.height),
            col0,
            min(col0 + self.chunk_x, self.width),
        )

    def to_json(self) -> bytes:
        return json.dumps(
            {
                "transform": [
                    self.transform.origin_x,
                    self.transform.origin_y,
                    self.transform.pixel_size,
                ],
                "height": self.height,
                "width": self.width,
                "variables": list(self.variables),
                "chunk_t": self.chunk_t,
                "chunk_y": self.chunk_y,
                "chunk_x": self.chunk_x,
                "dtype": self.dtype,
            },
            sort_keys=True,
        ).encode("utf-8")

    @staticmethod
    def from_json(payload: bytes) -> "CubeSchema":
        try:
            record = json.loads(payload.decode("utf-8"))
            return CubeSchema(
                transform=GeoTransform(*record["transform"]),
                height=int(record["height"]),
                width=int(record["width"]),
                variables=tuple(record["variables"]),
                chunk_t=int(record["chunk_t"]),
                chunk_y=int(record["chunk_y"]),
                chunk_x=int(record["chunk_x"]),
                dtype=record["dtype"],
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise DatacubeError(f"corrupt cube schema: {exc}") from exc


class Cube:
    """A chunked multi-variate time-indexed cube on HopsFS."""

    def __init__(self, store: ChunkStore, root: str, schema: CubeSchema,
                 obs: Optional[Observability] = None):
        self.store = store
        self.root = root.rstrip("/")
        self.schema = schema
        self.obs = resolve(obs)
        #: Time coordinate of every *sealed* step, in append order.
        self._times: List[float] = []
        #: ``(first_step, n_steps)`` per sealed time slab (slab == t-chunk).
        self._slabs: List[Tuple[int, int]] = []
        #: Dense chunk index: (variable, tc, yc, xc) -> HopsFS path.
        self._index: Dict[Tuple[str, int, int, int], str] = {}
        # The open tail: appended but not yet sealed. Each variable owns one
        # preallocated (chunk_t, H, W) slab whose first len(_tail_times)
        # steps are live, so tail reads and the seal slice it, never stack.
        self._tail_times: List[float] = []
        self._tail_sources: List[str] = []
        self._tail: Dict[str, np.ndarray] = {
            v: self._empty_slab() for v in schema.variables
        }
        self._lineage: Dict[str, Tuple[str, ...]] = {v: () for v in schema.variables}
        #: path -> (payload, decoded array) of every sealed chunk read so
        #: far; the array is a read-only view over the payload's bytes.
        self._decoded: Dict[str, Tuple[bytes, np.ndarray]] = {}
        self._seal_seq = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, store: ChunkStore, root: str,
               schema: CubeSchema, obs: Optional[Observability] = None) -> "Cube":
        """Initialise a new cube at *root* (writes the schema file)."""
        root = root.rstrip("/")
        store.makedirs(root)
        store.makedirs(f"{root}/time")
        for variable in schema.variables:
            store.makedirs(f"{root}/{variable}")
        store.put(f"{root}/schema.json", schema.to_json())
        return cls(store, root, schema, obs=obs)

    @classmethod
    def open(cls, store: ChunkStore, root: str,
             obs: Optional[Observability] = None) -> "Cube":
        """Re-attach to an existing cube: rebuild the index from storage."""
        root = root.rstrip("/")
        schema = CubeSchema.from_json(store.get(f"{root}/schema.json"))
        cube = cls(store, root, schema, obs=obs)
        for name in sorted(store.listdir(f"{root}/time")):
            record = json.loads(store.get(f"{root}/time/{name}").decode("utf-8"))
            first = len(cube._times)
            cube._times.extend(record["times"])
            cube._slabs.append((first, len(record["times"])))
        for tc, (_, n_steps) in enumerate(cube._slabs):
            cube._register_slab(tc)
            if n_steps < schema.chunk_t:
                cube._finalized = True  # a partial tail slab closed the cube
        cube._seal_seq = len(cube._slabs)
        return cube

    def _empty_slab(self) -> np.ndarray:
        schema = self.schema
        return np.empty((schema.chunk_t, schema.height, schema.width),
                        dtype=schema.dtype)

    def _register_slab(self, tc: int) -> None:
        for variable in self.schema.variables:
            for yc in range(self.schema.y_chunks):
                for xc in range(self.schema.x_chunks):
                    key = ChunkKey(tc, yc, xc)
                    self._index[(variable, tc, yc, xc)] = chunk_path(
                        self.root, variable, key
                    )

    # ------------------------------------------------------------------
    # Append-only ingest
    # ------------------------------------------------------------------

    @property
    def times(self) -> List[float]:
        """The full time axis, sealed steps first, then the open tail."""
        return self._times + self._tail_times

    @property
    def sealed_steps(self) -> int:
        return len(self._times)

    @property
    def sealed_chunks(self) -> int:
        return len(self._index)

    def set_lineage(self, variable: str, lineage: Sequence[str]) -> None:
        """Record the processing steps that produce a variable's values."""
        if variable not in self.schema.variables:
            raise DatacubeError(f"unknown variable {variable!r}")
        self._lineage[variable] = tuple(lineage)

    def append(self, time: float, arrays: Mapping[str, np.ndarray],
               source_id: str = "") -> None:
        """Add one time step (all variables at once).

        Times must be strictly increasing. The step buffers in the tail;
        when :attr:`CubeSchema.chunk_t` steps accumulate the slab seals to
        storage. Sealed chunks are never touched again.
        """
        if self._finalized:
            raise DatacubeError(
                "cube was finalized with a partial time slab; "
                "appends would rewrite sealed chunks"
            )
        missing = set(self.schema.variables) - set(arrays)
        extra = set(arrays) - set(self.schema.variables)
        if missing or extra:
            raise DatacubeError(
                f"append variables mismatch: missing {sorted(missing)}, "
                f"unknown {sorted(extra)}"
            )
        times = self._tail_times or self._times
        if times and time <= times[-1]:
            raise DatacubeError(
                f"time axis is append-only: {time} <= last {times[-1]}"
            )
        step: Dict[str, np.ndarray] = {}
        for variable, array in arrays.items():
            array = np.asarray(array)
            if array.shape != (self.schema.height, self.schema.width):
                raise DatacubeError(
                    f"variable {variable!r} has shape {array.shape}, cube is "
                    f"{(self.schema.height, self.schema.width)}"
                )
            step[variable] = array
        for variable, array in step.items():
            # Own the bytes: the cast into the slab is the copy, so the
            # caller's scene buffer never aliases cube contents (the
            # window-view bug class this layer is built on top of fixing).
            self._tail[variable][len(self._tail_times)] = array
        self._tail_times.append(float(time))
        self._tail_sources.append(source_id)
        self.obs.metrics.counter("datacube.appends").inc()
        if len(self._tail_times) == self.schema.chunk_t:
            self._seal_tail()

    def flush(self) -> None:
        """Seal a partial tail slab and close the cube to further appends.

        A no-op when the tail is empty (the cube stays appendable): only a
        partial slab — whose chunks a later append would have to rewrite —
        finalizes the cube.
        """
        if self._tail_times:
            self._seal_tail()
            self._finalized = True

    def _seal_tail(self) -> None:
        with self.obs.tracer.span("datacube.seal"):
            tc = len(self._slabs)
            first = len(self._times)
            times = tuple(self._tail_times)
            sources = tuple(s for s in self._tail_sources if s)
            self._seal_seq += 1
            for variable in self.schema.variables:
                slab = self._tail[variable][: len(times)]  # (n, H, W)
                for yc in range(self.schema.y_chunks):
                    for xc in range(self.schema.x_chunks):
                        key = ChunkKey(tc, yc, xc)
                        row0, row1, col0, col1 = self.schema.chunk_window(key)
                        block = slab[:, row0:row1, col0:col1]
                        path = chunk_path(self.root, variable, key)
                        if yc == 0 and xc == 0:
                            self.store.makedirs(
                                f"{self.root}/{variable}/t{tc:05d}"
                            )
                        self.store.put(path, encode_chunk(block))
                        provenance = ChunkProvenance(
                            variable=variable,
                            key=key,
                            times=times,
                            source_ids=sources,
                            sealed_seq=self._seal_seq,
                            lineage=self._lineage[variable],
                        )
                        self.store.put(
                            provenance_path(self.root, variable, key),
                            provenance.to_json(),
                        )
                # A fresh slab: blocks handed out over the old one stay valid.
                self._tail[variable] = self._empty_slab()
            self.store.put(
                f"{self.root}/time/{first:06d}.json",
                json.dumps(
                    {"times": list(times), "sources": list(self._tail_sources)},
                    sort_keys=True,
                ).encode("utf-8"),
            )
            self._times.extend(times)
            self._slabs.append((first, len(times)))
            self._register_slab(tc)
            self._tail_times = []
            self._tail_sources = []
            self.obs.metrics.counter("datacube.seals").inc()

    def provenance(self, variable: str, key: ChunkKey) -> ChunkProvenance:
        """Load a sealed chunk's provenance record."""
        if (variable, key.t, key.y, key.x) not in self._index:
            raise DatacubeError(f"no sealed chunk {key} for {variable!r}")
        return ChunkProvenance.from_json(
            self.store.get(provenance_path(self.root, variable, key))
        )

    # ------------------------------------------------------------------
    # Lazy selection
    # ------------------------------------------------------------------

    def _step_range(self, t_min: Optional[float], t_max: Optional[float]) -> Tuple[int, int]:
        """Half-open index range of time steps with t_min <= time <= t_max."""
        # Every tail time follows every sealed one, so positions in the
        # concatenated axis are sums of positions in the two sorted lists.
        sealed, tail = self._times, self._tail_times
        i0 = 0 if t_min is None else (
            bisect_left(sealed, t_min) + bisect_left(tail, t_min))
        i1 = len(sealed) + len(tail) if t_max is None else (
            bisect_right(sealed, t_max) + bisect_right(tail, t_max))
        return i0, max(i0, i1)

    def _footprints(self, window: Window) -> Iterator[Tuple[int, int]]:
        """``(yc, xc)`` of every spatial chunk a pixel window meets (none for
        the empty window ``(0, 0, 0, 0)``)."""
        row0, row1, col0, col1 = window
        for yc in range(row0 // self.schema.chunk_y,
                        (row1 - 1) // self.schema.chunk_y + 1):
            for xc in range(col0 // self.schema.chunk_x,
                            (col1 - 1) // self.schema.chunk_x + 1):
                yield yc, xc

    def _plan(self, variable: str, t_min: Optional[float],
              t_max: Optional[float], windows: Sequence[Window]) -> "SlicePlan":
        """The one plan constructor — pruning happens here, before any I/O.

        The plan names the sorted union of the chunks meeting *any* of the
        pixel *windows* inside the time range; its own window is their hull.
        """
        if variable not in self.schema.variables:
            raise DatacubeError(f"unknown variable {variable!r}")
        i0, i1 = self._step_range(t_min, t_max)
        windows = [w for w in windows if w[1] > w[0] and w[3] > w[2]]
        hull = (0, 0, 0, 0)
        if windows:
            row0s, row1s, col0s, col1s = zip(*windows)
            hull = (min(row0s), max(row1s), min(col0s), max(col1s))
        keys: List[ChunkKey] = []
        if i1 > i0:
            footprints = sorted({f for w in windows for f in self._footprints(w)})
            for tc, (first, n_steps) in enumerate(self._slabs):
                if first + n_steps <= i0 or first >= i1:
                    continue
                keys.extend(ChunkKey(tc, yc, xc) for yc, xc in footprints)
        chunks_total = len(self._slabs) * self.schema.y_chunks * self.schema.x_chunks
        plan = SlicePlan(
            cube=self,
            variable=variable,
            step_range=(i0, i1),
            window=hull,
            chunk_keys=tuple(keys),
            chunks_total=chunks_total,
        )
        self.obs.metrics.counter("datacube.sel_plans").inc()
        self.obs.metrics.counter("datacube.chunks_planned").inc(len(keys))
        self.obs.metrics.counter("datacube.chunks_pruned").inc(plan.chunks_pruned)
        return plan

    def sel(self, variable: str, t_min: Optional[float] = None,
            t_max: Optional[float] = None,
            bbox: Optional[BBoxLike] = None) -> "SlicePlan":
        """Plan a selection of the pixels whose centers fall inside *bbox*
        (borders included; the whole grid without one)."""
        shape = (self.schema.height, self.schema.width)
        if bbox is None:
            window = (0, shape[0], 0, shape[1])
        else:
            if not isinstance(bbox, BoundingBox):
                bbox = BoundingBox(*bbox)
            window = pixel_window(self.schema.transform, shape, bbox)
        return self._plan(variable, t_min, t_max, [window])

    # ------------------------------------------------------------------
    # Cross-variable / zonal tiled compute
    # ------------------------------------------------------------------

    def temporal_mean(self, variable: str, t_min: Optional[float] = None,
                      t_max: Optional[float] = None,
                      bbox: Optional[BBoxLike] = None) -> np.ndarray:
        """Per-pixel mean over the selected time steps (tiled)."""
        return self.sel(variable, t_min, t_max, bbox).reduce_time("mean")

    def ndvi_temporal_mean(self, red: str, nir: str,
                           t_min: Optional[float] = None,
                           t_max: Optional[float] = None,
                           bbox: Optional[BBoxLike] = None) -> np.ndarray:
        """Per-pixel temporal mean of (nir-red)/(nir+red), chunk by chunk.

        The classic cross-variable cube workload: two variables stream
        through aligned chunks; at no point does more than one chunk pair
        live in memory.
        """
        red_plan = self.sel(red, t_min, t_max, bbox)
        nir_plan = self.sel(nir, t_min, t_max, bbox)
        row0, row1, col0, col1 = red_plan.window
        steps = red_plan.step_range[1] - red_plan.step_range[0]
        if steps == 0 or row1 <= row0 or col1 <= col0:
            raise DatacubeError("empty selection")
        total = np.zeros((row1 - row0, col1 - col0), dtype=np.float64)
        for (rows, cols, red_block), (_, _, nir_block) in zip(
            red_plan.iter_blocks(), nir_plan.iter_blocks()
        ):
            denominator = nir_block + red_block
            ndvi = np.zeros_like(denominator)  # 0 where nir + red == 0
            np.divide(nir_block - red_block, denominator, out=ndvi,
                      where=denominator != 0.0)
            total[rows[0] - row0 : rows[1] - row0,
                  cols[0] - col0 : cols[1] - col0] += ndvi.sum(axis=0)
        return (total / steps).astype(np.float64)

    def anomaly_counts(self, variable: str, k: float = 2.0,
                       t_min: Optional[float] = None,
                       t_max: Optional[float] = None,
                       bbox: Optional[BBoxLike] = None) -> np.ndarray:
        """Per-step count of pixels deviating more than ``k`` temporal stds.

        Two tiled passes: moments first (sum/sum-of-squares per pixel), then
        exceedance counting per time step — the streaming form of the
        "detect when a pixel leaves its climatology" cube workload.
        """
        if k <= 0:
            raise DatacubeError(f"k must be positive, got {k}")
        plan = self.sel(variable, t_min, t_max, bbox)
        row0, row1, col0, col1 = plan.window
        steps = plan.step_range[1] - plan.step_range[0]
        if steps == 0 or row1 <= row0 or col1 <= col0:
            raise DatacubeError("empty selection")
        shape = (row1 - row0, col1 - col0)
        total = np.zeros(shape, dtype=np.float64)
        squares = np.zeros(shape, dtype=np.float64)
        for rows, cols, block in plan.iter_blocks():
            window = (
                slice(rows[0] - row0, rows[1] - row0),
                slice(cols[0] - col0, cols[1] - col0),
            )
            total[window] += block.sum(axis=0)
            squares[window] += np.square(block, dtype=np.float64).sum(axis=0)
        mean = total / steps
        variance = np.maximum(squares / steps - np.square(mean), 0.0)
        std = np.sqrt(variance)
        counts = np.zeros(steps, dtype=np.int64)
        i0 = plan.step_range[0]
        for rows, cols, block in plan.iter_blocks():
            window = (
                slice(rows[0] - row0, rows[1] - row0),
                slice(cols[0] - col0, cols[1] - col0),
            )
            exceed = np.abs(block - mean[window]) > k * std[window]
            t0 = block.t_offset - i0  # type: ignore[attr-defined]
            counts[t0 : t0 + block.shape[0]] += exceed.sum(axis=(1, 2))
        return counts

    def zonal_series(self, variable: str, polygons: Sequence[Polygon],
                     t_min: Optional[float] = None,
                     t_max: Optional[float] = None) -> np.ndarray:
        """Per-polygon per-time-step mean: ``(len(polygons), n_steps)``.

        The per-field temporal aggregation workload, planned per polygon:
        each one is rasterized once, on the pixel window of its own bounding
        box; only chunks meeting some window are read, each once, and a
        chunk is applied only to the polygons whose window meets it.
        """
        shape = (self.schema.height, self.schema.width)
        fields = [polygon_window_mask(polygon, self.schema.transform, shape)
                  for polygon in polygons]
        plan = self._plan(variable, t_min, t_max, [window for window, _ in fields])
        steps = plan.step_range[1] - plan.step_range[0]
        if steps == 0:
            raise DatacubeError("empty selection")
        meeting: Dict[Tuple[int, int], List[int]] = {}
        for index, (window, _) in enumerate(fields):
            for footprint in self._footprints(window):
                meeting.setdefault(footprint, []).append(index)
        sums = np.zeros((len(polygons), steps), dtype=np.float64)
        i0 = plan.step_range[0]
        for rows, cols, block in plan.iter_blocks():
            t0 = block.t_offset - i0  # type: ignore[attr-defined]
            # One chunk footprint under a sealed block, the hull's under the tail.
            under = self._footprints((*rows, *cols))
            for index in sorted({i for f in under for i in meeting.get(f, ())}):
                (row0, row1, col0, col1), mask = fields[index]
                r0, r1 = max(rows[0], row0), min(rows[1], row1)
                c0, c1 = max(cols[0], col0), min(cols[1], col1)
                sub = mask[r0 - row0 : r1 - row0, c0 - col0 : c1 - col0]
                cut = block[:, r0 - rows[0] : r1 - rows[0], c0 - cols[0] : c1 - cols[0]]
                sums[index, t0 : t0 + block.shape[0]] += cut.sum(
                    axis=(1, 2), dtype=np.float64, where=sub
                )
        counts = np.array([int(mask.sum()) for _, mask in fields], dtype=np.int64)
        empty = counts == 0
        series = sums / np.where(empty, 1, counts)[:, np.newaxis]
        series[empty] = np.nan
        return series


class SlicePlan:
    """The lazy result of :meth:`Cube.sel`: which chunks, before any I/O."""

    def __init__(self, cube: Cube, variable: str,
                 step_range: Tuple[int, int],
                 window: Window,
                 chunk_keys: Tuple[ChunkKey, ...],
                 chunks_total: int):
        self.cube = cube
        self.variable = variable
        self.step_range = step_range
        self.window = window
        self.chunk_keys = chunk_keys
        self.chunks_total = chunks_total

    @property
    def chunks_touched(self) -> int:
        return len(self.chunk_keys)

    @property
    def chunks_pruned(self) -> int:
        return self.chunks_total - self.chunks_touched

    @property
    def shape(self) -> Tuple[int, int, int]:
        row0, row1, col0, col1 = self.window
        return (self.step_range[1] - self.step_range[0],
                max(row1 - row0, 0), max(col1 - col0, 0))

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def _load_chunk(self, key: ChunkKey) -> np.ndarray:
        """Read one sealed chunk through the store; decode it only once.

        Every call is a ``store.get`` (block routing, checksums and the
        ``chunks_read`` count all happen per read). When the store hands
        back the very payload object it did last time, the array decoded
        from it then is returned again: a sealed chunk never changes, and
        the kept payload cannot be freed, so ``is`` cannot mistake a new
        object for it. Any other payload — an inline chunk re-read after a
        recover, say — is decoded afresh.
        """
        path = self.cube._index[(self.variable, key.t, key.y, key.x)]
        payload = self.cube.store.get(path)
        decoded = self.cube._decoded.get(path)
        if decoded is not None and decoded[0] is payload:
            array = decoded[1]
        else:
            array = decode_chunk(payload)
            self.cube._decoded[path] = (payload, array)
        self.cube.obs.metrics.counter("datacube.chunks_read").inc()
        return array

    def iter_blocks(self) -> Iterator[Tuple[Tuple[int, int], Tuple[int, int], np.ndarray]]:
        """Stream ``((row0, row1), (col0, col1), block)`` pieces of the
        selection, one chunk-sized block at a time.

        Blocks are clipped to the selection's time and pixel window; the
        block array carries its absolute time offset in ``block.t_offset``.
        Tail (unsealed) steps stream last, sliced from the in-memory slab.
        Blocks are **read-only** views — of the stored chunk payload or of
        the open slab — and copy nothing; :meth:`read` returns a fresh array.
        Each sealed chunk is read from the store on every pass, but decoded
        once per cube (:meth:`_load_chunk`): a block is a slice of that one
        shared read-only array.
        """
        i0, i1 = self.step_range
        row0, row1, col0, col1 = self.window
        if i1 <= i0 or row1 <= row0 or col1 <= col0:
            return
        with self.cube.obs.tracer.span("datacube.scan", var=self.variable):
            for key in self.chunk_keys:
                first, n_steps = self.cube._slabs[key.t]
                t_lo = max(i0, first)
                t_hi = min(i1, first + n_steps)
                crow0, crow1, ccol0, ccol1 = self.cube.schema.chunk_window(key)
                brow0, brow1 = max(row0, crow0), min(row1, crow1)
                bcol0, bcol1 = max(col0, ccol0), min(col1, ccol1)
                array = self._load_chunk(key)
                block = array[
                    t_lo - first : t_hi - first,
                    brow0 - crow0 : brow1 - crow0,
                    bcol0 - ccol0 : bcol1 - ccol0,
                ]
                block = _TBlock(block, t_offset=t_lo)
                yield (brow0, brow1), (bcol0, bcol1), block
            # Tail steps live only in memory: one block, the plan's window
            # cut out of the open slab in place.
            sealed = self.cube.sealed_steps
            tail_lo = max(i0, sealed)
            if tail_lo < i1:
                block = self.cube._tail[self.variable][
                    tail_lo - sealed : i1 - sealed, row0:row1, col0:col1
                ]
                yield (row0, row1), (col0, col1), _TBlock(block, t_offset=tail_lo)

    def read(self) -> np.ndarray:
        """Materialize the selection as a dense ``(t, y, x)`` array."""
        i0, i1 = self.step_range
        row0, row1, col0, col1 = self.window
        out = np.zeros(self.shape, dtype=self.cube.schema.dtype)
        for rows, cols, block in self.iter_blocks():
            t0 = block.t_offset - i0  # type: ignore[attr-defined]
            out[
                t0 : t0 + block.shape[0],
                rows[0] - row0 : rows[1] - row0,
                cols[0] - col0 : cols[1] - col0,
            ] = block
        return out

    def times(self) -> List[float]:
        """Time coordinates covered by the plan."""
        return self.cube.times[self.step_range[0] : self.step_range[1]]

    def reduce_time(self, op: str = "mean") -> np.ndarray:
        """Collapse the time axis with a streaming reduction (tiled).

        ``op`` is ``mean``, ``sum``, ``min``, or ``max``. Accumulators are
        per-pixel 2-D arrays; chunks stream through one at a time.
        """
        if op not in ("mean", "sum", "min", "max"):
            raise DatacubeError(f"unknown reduction {op!r}")
        i0, i1 = self.step_range
        row0, row1, col0, col1 = self.window
        steps = i1 - i0
        if steps == 0 or row1 <= row0 or col1 <= col0:
            raise DatacubeError("empty selection")
        shape = (row1 - row0, col1 - col0)
        if op in ("mean", "sum"):
            accumulator = np.zeros(shape, dtype=np.float64)
        elif op == "min":
            accumulator = np.full(shape, np.inf, dtype=np.float64)
        else:
            accumulator = np.full(shape, -np.inf, dtype=np.float64)
        for rows, cols, block in self.iter_blocks():
            window = (
                slice(rows[0] - row0, rows[1] - row0),
                slice(cols[0] - col0, cols[1] - col0),
            )
            if op in ("mean", "sum"):
                accumulator[window] += block.sum(axis=0, dtype=np.float64)
            elif op == "min":
                np.minimum(accumulator[window], block.min(axis=0),
                           out=accumulator[window])
            else:
                np.maximum(accumulator[window], block.max(axis=0),
                           out=accumulator[window])
        if op == "mean":
            accumulator /= steps
        return accumulator


class _TBlock(np.ndarray):
    """A block array annotated with its absolute time offset."""

    def __new__(cls, array: np.ndarray, t_offset: int):
        view = np.asarray(array).view(cls)
        view.flags.writeable = False
        view.t_offset = t_offset
        return view

    def __array_finalize__(self, source):  # pragma: no cover - numpy hook
        if source is not None:
            self.t_offset = getattr(source, "t_offset", 0)
