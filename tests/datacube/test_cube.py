"""Unit tests for the E24 data cube: chunking, append-only storage,
pruning, provenance, and the HopsFS integration (E17/E20 apply to chunks)."""

import hashlib
import json

import numpy as np
import pytest

from repro.datacube import (
    ChunkKey,
    ChunkProvenance,
    ChunkStore,
    Cube,
    CubeSchema,
    decode_chunk,
    encode_chunk,
)
from repro.datacube.chunk import CHUNK_MAGIC
from repro.durability import BlockChecksums
from repro.errors import BlockCorruption, DatacubeError
from repro.geometry import Polygon
from repro.hopsfs.blocks import BlockManager
from repro.hopsfs.filesystem import HopsFS
from repro.obs import Observability
from repro.raster.grid import GeoTransform


def make_cube(height=80, width=60, chunk_t=3, chunk_y=32, chunk_x=32,
              variables=("a", "b"), store=None, obs=None):
    schema = CubeSchema(
        transform=GeoTransform(0.0, 0.0, 10.0),
        height=height, width=width, variables=tuple(variables),
        chunk_t=chunk_t, chunk_y=chunk_y, chunk_x=chunk_x,
    )
    store = store if store is not None else ChunkStore(obs=obs)
    return Cube.create(store, "/cubes/test", schema, obs=obs)


def fill(cube, steps, seed=0):
    rng = np.random.default_rng(seed)
    dense = {v: [] for v in cube.schema.variables}
    start = len(cube.times)
    for index in range(start, start + steps):
        arrays = {
            v: rng.random((cube.schema.height, cube.schema.width))
            for v in cube.schema.variables
        }
        cube.append(float(index * 10), arrays, source_id=f"scene-{index}")
        for v, a in arrays.items():
            dense[v].append(a.astype("float32"))
    return {v: np.stack(a) for v, a in dense.items()}


class TestChunkCodec:
    def test_roundtrip(self):
        array = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
        assert np.array_equal(decode_chunk(encode_chunk(array)), array)

    def test_bad_magic(self):
        with pytest.raises(DatacubeError, match="magic"):
            decode_chunk(b"nope" * 10)

    @staticmethod
    def forged(header, body):
        header = json.dumps(header).encode("utf-8")
        return CHUNK_MAGIC + len(header).to_bytes(4, "big") + header + body

    @pytest.mark.parametrize("shape", [[-2, -3, 4], [24], [2, 12]])
    def test_forged_shape_is_a_corrupt_header(self, shape):
        """The negative pair multiplies to the right length (it used to
        reach ``reshape``: a bare ValueError); 1-D and 2-D shapes decoded to
        arrays ``encode_chunk`` itself refuses to write."""
        payload = self.forged({"dtype": "<f4", "shape": shape}, b"\0" * 96)
        with pytest.raises(DatacubeError, match="corrupt chunk header"):
            decode_chunk(payload)

    def test_forged_dtype_is_a_corrupt_header(self):
        payload = self.forged({"dtype": "O", "shape": [1, 1, 1]}, b"\0" * 8)
        with pytest.raises(DatacubeError, match="corrupt chunk header"):
            decode_chunk(payload)

    def test_decode_is_a_read_only_view_of_the_payload(self):
        payload = encode_chunk(np.ones((2, 3, 4), dtype=np.float32))
        array = decode_chunk(payload)
        assert not array.flags.writeable
        assert np.shares_memory(array, np.frombuffer(payload, dtype=np.uint8))

    def test_truncated_body(self):
        payload = encode_chunk(np.zeros((1, 2, 2), dtype=np.float32))
        with pytest.raises(DatacubeError, match="bytes"):
            decode_chunk(payload[:-3])

    def test_non_3d_rejected(self):
        with pytest.raises(DatacubeError, match="3-D"):
            encode_chunk(np.zeros((4, 4)))


class TestSchema:
    def test_validation(self):
        transform = GeoTransform(0, 0, 10)
        with pytest.raises(DatacubeError):
            CubeSchema(transform, 0, 10, ("a",))
        with pytest.raises(DatacubeError):
            CubeSchema(transform, 10, 10, ())
        with pytest.raises(DatacubeError):
            CubeSchema(transform, 10, 10, ("a", "a"))
        with pytest.raises(DatacubeError):
            CubeSchema(transform, 10, 10, ("a/b",))
        with pytest.raises(DatacubeError):
            CubeSchema(transform, 10, 10, ("a",), chunk_t=0)

    def test_roundtrip(self):
        schema = CubeSchema(GeoTransform(5, 7, 20), 30, 40, ("x",), 2, 16, 8)
        assert CubeSchema.from_json(schema.to_json()) == schema

    def test_chunk_grid(self):
        schema = CubeSchema(GeoTransform(0, 0, 10), 80, 60, ("a",),
                            chunk_y=32, chunk_x=32)
        assert schema.y_chunks == 3 and schema.x_chunks == 2
        # Edge chunk is clipped to the extent.
        assert schema.chunk_window(ChunkKey(0, 2, 1)) == (64, 80, 32, 60)


class TestAppend:
    def test_tail_then_seal(self):
        cube = make_cube(chunk_t=3)
        fill(cube, 2)
        assert cube.sealed_steps == 0 and len(cube.times) == 2
        assert cube.sealed_chunks == 0
        fill_more = np.random.default_rng(9).random((80, 60))
        cube.append(99.0, {"a": fill_more, "b": fill_more})
        assert cube.sealed_steps == 3
        # 2 variables x 1 slab x 3 y-chunks x 2 x-chunks
        assert cube.sealed_chunks == 12

    def test_validation(self):
        cube = make_cube()
        good = np.zeros((80, 60))
        with pytest.raises(DatacubeError, match="mismatch"):
            cube.append(0.0, {"a": good})
        with pytest.raises(DatacubeError, match="mismatch"):
            cube.append(0.0, {"a": good, "b": good, "c": good})
        with pytest.raises(DatacubeError, match="shape"):
            cube.append(0.0, {"a": good, "b": np.zeros((10, 10))})
        cube.append(5.0, {"a": good, "b": good})
        with pytest.raises(DatacubeError, match="append-only"):
            cube.append(5.0, {"a": good, "b": good})

    def test_append_never_rewrites_sealed_chunks(self):
        """The headline E24 invariant, pinned via HopsFS write counters."""
        cube = make_cube(chunk_t=2)
        fill(cube, 2, seed=1)
        first_wave = dict(cube.store.writes)
        assert first_wave and all(v == 1 for v in first_wave.values())
        fill(cube, 2, seed=2)  # continues at later times: appends new slab
        # Old paths untouched, new paths written exactly once.
        for path, count in cube.store.writes.items():
            assert count == 1, path
        assert set(first_wave) < set(cube.store.writes)

    def test_store_rejects_rewrite(self):
        store = ChunkStore()
        store.makedirs("/cubes")
        store.put("/cubes/x", b"one")
        with pytest.raises(DatacubeError, match="append-only"):
            store.put("/cubes/x", b"two")

    def test_flush_partial_slab_finalizes(self):
        cube = make_cube(chunk_t=4)
        dense = fill(cube, 6, seed=3)
        cube.flush()
        assert cube.sealed_steps == 6
        got = cube.sel("a").read()
        assert np.array_equal(got, dense["a"])
        with pytest.raises(DatacubeError, match="finalized"):
            cube.append(999.0, {"a": np.zeros((80, 60)),
                                "b": np.zeros((80, 60))})

    def test_flush_empty_tail_is_noop(self):
        cube = make_cube(chunk_t=2)
        fill(cube, 4, seed=4)
        cube.flush()
        cube.append(999.0, {"a": np.zeros((80, 60)),
                            "b": np.zeros((80, 60))})
        assert len(cube.times) == 5

    def test_appended_array_is_copied(self):
        cube = make_cube(chunk_t=4)
        array = np.ones((80, 60))
        cube.append(0.0, {"a": array, "b": array})
        array[:] = -5.0
        assert float(cube.sel("a").read().max()) == 1.0


class TestSelection:
    def test_pruning_strictly_fewer_than_full_scan(self):
        cube = make_cube(chunk_t=2)
        fill(cube, 6, seed=5)
        plan = cube.sel("a", t_min=0, t_max=15, bbox=(0, -300, 300, 0))
        assert plan.chunks_total == 18  # 3 slabs x 3 x 2 per variable
        assert 0 < plan.chunks_touched < plan.chunks_total
        assert plan.chunks_pruned == plan.chunks_total - plan.chunks_touched

    def test_time_only_and_bbox_only(self):
        cube = make_cube(chunk_t=2)
        dense = fill(cube, 4, seed=6)
        by_time = cube.sel("b", t_min=20, t_max=30).read()
        assert np.array_equal(by_time, dense["b"][2:4])
        by_box = cube.sel("b", bbox=(100, -200, 400, -50)).read()
        # centers x in [105..395] -> cols 10..39; y in [-195..-55] -> rows 5..19
        assert np.array_equal(by_box, dense["b"][:, 5:20, 10:40])

    def test_empty_selection(self):
        cube = make_cube(chunk_t=2)
        fill(cube, 2, seed=7)
        plan = cube.sel("a", t_min=1e9)
        assert plan.chunks_touched == 0
        assert plan.read().shape[0] == 0
        with pytest.raises(DatacubeError, match="empty"):
            plan.reduce_time("mean")

    def test_unknown_variable(self):
        cube = make_cube()
        with pytest.raises(DatacubeError, match="unknown variable"):
            cube.sel("nope")

    def test_bbox_edge_on_a_pixel_center_keeps_it(self):
        """At pixel size 0.1 the center of column 1 is 0.15000000000000002;
        the parent's ``ceil(x / size - 0.5)`` made that column 2 and returned
        nothing for a box whose edge is that very center."""
        transform = GeoTransform(0.0, 0.0, 0.1)
        schema = CubeSchema(transform, 4, 4, ("a",), chunk_t=1,
                            chunk_y=2, chunk_x=2)
        cube = Cube.create(ChunkStore(), "/cubes/tenth", schema)
        data = np.arange(16.0).reshape(4, 4)
        cube.append(0.0, {"a": data})
        x, y = transform.pixel_to_map(1, 1)
        got = cube.sel("a", bbox=(x, y, x, y)).read()
        assert np.array_equal(got, data[np.newaxis, 1:2, 1:2])

    def test_read_is_writable_blocks_are_not(self):
        cube = make_cube(chunk_t=2)
        fill(cube, 3, seed=20)  # one sealed slab and a one-step tail
        plan = cube.sel("a")
        blocks = [block for _, _, block in plan.iter_blocks()]
        assert blocks and not any(block.flags.writeable for block in blocks)
        out = plan.read()
        out[:] = -1.0  # a fresh array: the cube is not written through it
        assert float(cube.sel("a").read().min()) >= 0.0

    def test_times_is_a_list_across_seal_and_tail(self):
        cube = make_cube(chunk_t=2)
        fill(cube, 3, seed=21)
        assert cube.times == [0.0, 10.0, 20.0] and isinstance(cube.times, list)
        # Windows ending inside the sealed part, inside the tail, and on both.
        assert cube.sel("a", t_min=10, t_max=10).step_range == (1, 2)
        assert cube.sel("a", t_min=15).step_range == (2, 3)
        assert cube.sel("a", t_min=5, t_max=25).step_range == (1, 3)
        assert cube.sel("a", t_max=-1).step_range == (0, 0)
        assert cube.sel("a", t_min=21).step_range == (3, 3)

    def test_tail_visible_before_seal(self):
        cube = make_cube(chunk_t=4)
        dense = fill(cube, 3, seed=8)  # all in the tail
        assert cube.sealed_chunks == 0
        got = cube.sel("a", bbox=(0, -300, 300, 0)).read()
        assert np.array_equal(got, dense["a"][:, :30, :30])

    def test_reduce_ops(self):
        cube = make_cube(chunk_t=2)
        dense = fill(cube, 4, seed=9)
        window = dense["a"][:, 5:20, 10:40]
        plan = cube.sel("a", bbox=(100, -200, 400, -50))
        assert np.allclose(plan.reduce_time("mean"),
                           window.mean(axis=0, dtype=np.float64))
        assert np.allclose(plan.reduce_time("sum"),
                           window.sum(axis=0, dtype=np.float64))
        assert np.array_equal(plan.reduce_time("min"), window.min(axis=0))
        assert np.array_equal(plan.reduce_time("max"), window.max(axis=0))
        with pytest.raises(DatacubeError, match="reduction"):
            plan.reduce_time("median")


class TestZonal:
    """Zonal reads are planned per polygon, through the one plan constructor."""

    # On the 80x60 grid of make_cube (10 m pixels, 32 px chunks: 3 x 2
    # footprints): a field inside chunk (0, 0), one across the corner shared
    # by chunks (0, 0), (0, 1), (1, 0), (1, 1), and one off the grid.
    INSIDE = Polygon.box(20, -200, 180, -40)
    CORNER = Polygon.box(250, -400, 400, -250)
    OUTSIDE = Polygon.box(5000, -300, 5200, -100)

    def test_chunks_read_is_slabs_times_chunks_meeting_a_window(self):
        obs = Observability()
        cube = make_cube(chunk_t=2, obs=obs)
        fill(cube, 5, seed=30)  # two sealed slabs and a one-step tail
        chunks_read = obs.metrics.counter("datacube.chunks_read")
        before = chunks_read.value
        cube.zonal_series("a", [self.INSIDE, self.CORNER, self.OUTSIDE])
        # (0, 0) is met by both fields and read once per slab.
        assert chunks_read.value - before == 2 * 4
        before = chunks_read.value
        cube.zonal_series("a", [self.INSIDE, self.OUTSIDE], t_max=15)
        assert chunks_read.value - before == 1 * 1

    def test_zonal_plan_keeps_the_plan_arithmetic_and_counters(self):
        obs = Observability()
        cube = make_cube(chunk_t=2, obs=obs)
        fill(cube, 4, seed=31)
        windows = [(4, 20, 2, 18), (25, 40, 25, 40), (0, 0, 0, 0)]
        planned = obs.metrics.counter("datacube.chunks_planned").value
        plan = cube._plan("a", None, None, windows)
        assert plan.chunks_total == 2 * 3 * 2
        assert plan.chunks_touched == 2 * 4
        assert plan.chunks_touched + plan.chunks_pruned == plan.chunks_total
        assert plan.window == (4, 40, 2, 40)  # the hull of the live windows
        assert list(plan.chunk_keys) == sorted(plan.chunk_keys)
        assert obs.metrics.counter("datacube.chunks_planned").value == planned + 8
        # sel is the same constructor with one window.
        one = cube.sel("a", bbox=(20, -200, 180, -40))
        assert one.window == (4, 20, 2, 18) and one.chunks_touched == 2

    def test_errors_match_sel(self):
        cube = make_cube(chunk_t=2)
        fill(cube, 2, seed=32)
        with pytest.raises(DatacubeError, match="unknown variable"):
            cube.zonal_series("nope", [self.INSIDE])
        with pytest.raises(DatacubeError, match="empty selection"):
            cube.zonal_series("a", [self.INSIDE], t_min=1e9)

    def test_tail_only_cube(self):
        cube = make_cube(chunk_t=4)
        dense = fill(cube, 3, seed=33)  # nothing sealed yet
        series = cube.zonal_series("a", [self.INSIDE, self.OUTSIDE])
        assert np.allclose(series[0], dense["a"][:, 4:20, 2:18].mean(axis=(1, 2)))
        assert np.isnan(series[1]).all()


class TestProvenance:
    def test_chunk_provenance(self):
        cube = make_cube(chunk_t=2)
        cube.set_lineage("a", ("scene_window", "band:3"))
        fill(cube, 2, seed=10)
        record = cube.provenance("a", ChunkKey(0, 0, 0))
        assert record.variable == "a"
        assert record.times == (0.0, 10.0)
        assert record.source_ids == ("scene-0", "scene-1")
        assert record.sealed_seq == 1
        assert record.lineage == ("scene_window", "band:3")

    def test_provenance_roundtrip(self):
        record = ChunkProvenance("v", ChunkKey(1, 2, 3), (5.0,), ("s",), 7,
                                 ("l1", "l2"))
        assert ChunkProvenance.from_json(record.to_json()) == record

    def test_unsealed_chunk_has_no_provenance(self):
        cube = make_cube(chunk_t=4)
        fill(cube, 1)
        with pytest.raises(DatacubeError, match="no sealed chunk"):
            cube.provenance("a", ChunkKey(0, 0, 0))


class TestReopen:
    def test_open_rebuilds_index(self):
        store = ChunkStore()
        cube = make_cube(chunk_t=2, store=store)
        dense = fill(cube, 4, seed=11)
        reopened = Cube.open(store, "/cubes/test")
        assert reopened.schema == cube.schema
        assert reopened.times == cube.times
        assert reopened.sealed_chunks == cube.sealed_chunks
        assert np.array_equal(reopened.sel("a").read(), dense["a"])

    def test_open_partial_tail_is_finalized(self):
        store = ChunkStore()
        cube = make_cube(chunk_t=4, store=store)
        fill(cube, 6, seed=12)
        cube.flush()
        reopened = Cube.open(store, "/cubes/test")
        assert reopened.sealed_steps == 6
        with pytest.raises(DatacubeError, match="finalized"):
            reopened.append(1e6, {"a": np.zeros((80, 60)),
                                  "b": np.zeros((80, 60))})


def make_block_cube(store):
    """A cube whose chunks exceed the inline threshold (real block files):
    2 x 192 x 192 float32 = 294912 bytes per chunk, one spatial chunk."""
    return make_cube(height=192, width=192, chunk_t=2, chunk_y=192,
                     chunk_x=192, store=store)


class TestStorageIntegration:
    """The cube inherits the block layer's reliability machinery."""

    def test_replica_fallback_read(self):
        """E17: chunk reads survive a datanode failure."""
        blocks = BlockManager(node_count=4, replication=3)
        store = ChunkStore(fs=HopsFS(blocks=blocks))
        cube = make_block_cube(store)
        dense = fill(cube, 2, seed=13)
        assert blocks.block_count > 0  # chunks went to block storage
        blocks.fail_node(0)
        assert np.array_equal(cube.sel("a").read(), dense["a"])

    def test_corrupt_chunk_detected(self):
        """E20: a chunk whose every replica rotted raises BlockCorruption."""
        checksums = BlockChecksums(verify=True)
        blocks = BlockManager(node_count=3, replication=3,
                              checksums=checksums)
        store = ChunkStore(fs=HopsFS(blocks=blocks))
        cube = make_block_cube(store)
        fill(cube, 2, seed=14)
        target = next(iter(blocks.block_table()))
        for node_id in blocks.block_locations(target):
            checksums.corrupt_replica(target, node_id)
        with pytest.raises(BlockCorruption):
            for variable in cube.schema.variables:
                cube.sel(variable).read()

    def test_single_corrupt_replica_fails_over(self):
        checksums = BlockChecksums(verify=True)
        blocks = BlockManager(node_count=4, replication=3,
                              checksums=checksums)
        store = ChunkStore(fs=HopsFS(blocks=blocks))
        cube = make_block_cube(store)
        dense = fill(cube, 2, seed=15)
        for block_id in blocks.block_table():
            checksums.corrupt_replica(block_id,
                                      blocks.block_locations(block_id)[0])
        assert np.array_equal(cube.sel("a").read(), dense["a"])


def make_tiled_block_cube(blocks):
    """Block-layout chunks on a 2 x 2 chunk grid: 2 x 32 x 32 float32 is
    8 KiB a chunk, over a 1 KiB inline threshold."""
    fs = HopsFS(blocks=blocks, small_file_threshold=1024)
    return make_cube(height=64, width=64, chunk_t=2, chunk_y=32, chunk_x=32,
                     variables=("a",), store=ChunkStore(fs=fs))


def chunk_blocks(cube, key):
    """Block ids of one sealed chunk of variable ``a``."""
    path = cube._index[("a", key.t, key.y, key.x)]
    return cube.store.fs.stat(path).block_ids


class TestZonalStorageIntegration:
    """The three block-layer tests above, through ``zonal_series``: pruning
    the read set must not take any read past the block manager."""

    #: Inside chunk (0, 0) of the 2 x 2 grid; chunk (1, 1) is never under it.
    FIELD = Polygon.box(40, -280, 260, -30)

    @staticmethod
    def expected(dense):
        return dense["a"][:, 3:28, 4:26].mean(axis=(1, 2), dtype=np.float64)

    def test_replica_fallback_read(self):
        blocks = BlockManager(node_count=4, replication=3)
        cube = make_tiled_block_cube(blocks)
        dense = fill(cube, 2, seed=40)
        assert blocks.block_count > 0
        blocks.fail_node(0)
        series = cube.zonal_series("a", [self.FIELD])
        assert np.allclose(series[0], self.expected(dense), rtol=1e-9)

    def test_single_corrupt_replica_fails_over(self):
        checksums = BlockChecksums(verify=True)
        blocks = BlockManager(node_count=4, replication=3, checksums=checksums)
        cube = make_tiled_block_cube(blocks)
        dense = fill(cube, 2, seed=41)
        for block_id in blocks.block_table():
            checksums.corrupt_replica(block_id,
                                      blocks.block_locations(block_id)[0])
        series = cube.zonal_series("a", [self.FIELD])
        assert np.allclose(series[0], self.expected(dense), rtol=1e-9)

    def test_corrupt_chunk_under_a_polygon_is_detected(self):
        checksums = BlockChecksums(verify=True)
        blocks = BlockManager(node_count=3, replication=3, checksums=checksums)
        cube = make_tiled_block_cube(blocks)
        dense = fill(cube, 2, seed=42)

        def rot(key):
            for block_id in chunk_blocks(cube, key):
                for node_id in blocks.block_locations(block_id):
                    checksums.corrupt_replica(block_id, node_id)

        # Rotten, but outside every polygon's window: never read.
        rot(ChunkKey(0, 1, 1))
        series = cube.zonal_series("a", [self.FIELD])
        assert np.allclose(series[0], self.expected(dense), rtol=1e-9)
        # A polygon reaching it reads it, and the read must fail.
        with pytest.raises(BlockCorruption):
            cube.zonal_series("a", [self.FIELD, Polygon.box(400, -600, 600, -400)])
        # So must one under the first polygon.
        rot(ChunkKey(0, 0, 0))
        with pytest.raises(BlockCorruption):
            cube.zonal_series("a", [self.FIELD])


class TestSealPayloads:
    """The seal slices each chunk out of the open slab instead of stacking
    the slab first: same paths, same order, same bytes, each written once."""

    @staticmethod
    def steps(count, height=80, width=60):
        """Exact integer-valued steps (no RNG stream to drift)."""
        cells = np.arange(height * width, dtype=np.int64)
        return [
            ((cells * 7919 + step * 104729) % 65521).reshape(height, width)
            for step in range(count)
        ]

    def test_payloads_are_the_stacked_slab_sliced(self):
        cube = make_cube(chunk_t=3, variables=("a",))
        steps = self.steps(5)
        for index, step in enumerate(steps):
            cube.append(float(index), {"a": step})
        cube.flush()  # a full slab and a partial one
        assert max(cube.store.writes.values()) == 1
        digest = hashlib.blake2b(digest_size=16)
        for (_, tc, yc, xc), path in sorted(cube._index.items()):
            first, count = cube._slabs[tc]
            slab = np.stack(steps[first : first + count]).astype("float32")
            row0, row1, col0, col1 = cube.schema.chunk_window(ChunkKey(tc, yc, xc))
            payload = cube.store.get(path)
            assert payload == encode_chunk(
                np.ascontiguousarray(slab[:, row0:row1, col0:col1])
            ), path
            digest.update(path.encode("utf-8") + payload)
        # Recorded on the parent commit (np.stack of the whole slab first).
        assert digest.hexdigest() == "f565c170098e52e63802c841ac8046ca"

    def test_put_order_is_unchanged(self):
        cube = make_cube(chunk_t=2, variables=("a", "b"))
        fill(cube, 2, seed=50)
        chunk_puts = [path for path in cube.store.writes if path.endswith(".chunk")]
        assert chunk_puts == [
            f"/cubes/test/{variable}/t00000/y{yc:03d}_x{xc:03d}.chunk"
            for variable in ("a", "b") for yc in range(3) for xc in range(2)
        ]


class TestObservability:
    def test_datacube_metrics(self):
        obs = Observability()
        cube = make_cube(chunk_t=2, obs=obs)
        fill(cube, 4, seed=16)
        cube.sel("a", bbox=(0, -100, 100, 0)).read()
        snapshot = obs.metrics.snapshot()
        names = {c["name"] for c in snapshot["counters"]}
        for expected in (
            "datacube.appends", "datacube.seals", "datacube.sel_plans",
            "datacube.chunks_planned", "datacube.chunks_pruned",
            "datacube.chunks_read", "datacube.store_puts",
            "datacube.store_gets", "datacube.bytes_written",
            "datacube.bytes_read",
        ):
            assert expected in names, expected
