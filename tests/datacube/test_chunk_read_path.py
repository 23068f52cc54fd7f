"""The chunk read path resolves a sealed chunk once and still guards every read.

``ChunkStore`` keeps the ``FileStat`` of every path it writes or stats, and
``SlicePlan._load_chunk`` reuses the array decoded from an identical payload.
Neither may take a read past the block layer: after a warm first read, a
dead datanode, rotten replicas or a moved chunk must behave exactly as on a
cold read. The exactness rule — kept stats are dropped whenever
``HopsFS.path_losses`` moves — is pinned here too, and so is where the
bytes live: on the datanodes, so any store reads them, a delete frees
them, and a rotten replica's bytes are what an unverified read returns.
"""

import sys

import numpy as np
import pytest

import repro.datacube.cube as cube_module
from repro.datacube import ChunkKey, ChunkStore, Cube, CubeSchema
from repro.datacube.chunk import chunk_path, encode_chunk
from repro.durability import BlockChecksums, DurabilityLayer
from repro.errors import BlockCorruption, StorageError
from repro.faults import BitFlip, FaultInjector, FaultPlan, ShardOutage
from repro.geometry import Polygon
from repro.hopsfs import ShardedKVStore, ShardUnavailable
from repro.hopsfs.blocks import BlockManager
from repro.hopsfs.filesystem import HopsFS
from repro.raster.grid import GeoTransform

ROOT = "/cubes/reads"
#: Covers the whole 64 x 64 grid of 10 m pixels (rows grow southwards).
WHOLE = Polygon.box(-10.0, -700.0, 700.0, 10.0)
#: Whole-grid reads, each with the variables whose every chunk it reads.
READS = {
    "sel": (lambda cube: cube.sel("nir").read(), ("nir",)),
    "zonal": (lambda cube: cube.zonal_series("nir", [WHOLE]), ("nir",)),
    "ndvi": (lambda cube: cube.ndvi_temporal_mean("red", "nir"), ("red", "nir")),
}
#: 2 x 32 x 32 float32 chunks are 8 KiB: block layout over this threshold.
BLOCK_THRESHOLD = 1024


def schema(chunk=(2, 32, 32)):
    chunk_t, chunk_y, chunk_x = chunk
    return CubeSchema(
        transform=GeoTransform(0.0, 0.0, 10.0), height=64, width=64,
        variables=("red", "nir"), chunk_t=chunk_t, chunk_y=chunk_y,
        chunk_x=chunk_x,
    )


def filled_cube(fs, steps=4, chunk=(2, 32, 32), root=ROOT, seed=7):
    """A cube on *fs* with *steps* sealed steps; returns (cube, dense)."""
    cube = Cube.create(ChunkStore(fs=fs), root, schema(chunk))
    rng = np.random.default_rng(seed)
    dense = {v: [] for v in cube.schema.variables}
    for step in range(steps):
        arrays = {v: rng.random((64, 64)) + 0.1 for v in cube.schema.variables}
        cube.append(float(step + 1), arrays, source_id=f"scene-{step}")
        for variable, array in arrays.items():
            dense[variable].append(array.astype("float32"))
    assert cube.sealed_steps == steps
    return cube, {v: np.stack(a) for v, a in dense.items()}


def chunk_paths(cube, variables):
    return [
        path for (variable, *_), path in sorted(cube._index.items())
        if variable in variables
    ]


def block_ids(cube, variables):
    return {
        block_id
        for path in chunk_paths(cube, variables)
        for block_id in cube.store.fs.stat(path).block_ids
    }


class RoutedBlocks:
    """Records every ``read_block`` call and the replica that served it."""

    def __init__(self, blocks, monkeypatch):
        self.served = []
        inner = blocks.read_block

        def read_block(block_id, preferred=None):
            node = inner(block_id, preferred)
            self.served.append((block_id, node))
            return node

        monkeypatch.setattr(blocks, "read_block", read_block)

    def block_ids(self):
        return {block_id for block_id, _ in self.served}

    def nodes(self):
        return {node for _, node in self.served}


def same(result, expected):
    return result.shape == expected.shape and np.array_equal(
        result, expected, equal_nan=True
    )


@pytest.mark.parametrize("read", sorted(READS))
class TestFaultsAfterAWarmRead:
    """Warm the kept stats and decoded arrays with one read, then break
    the storage: the next read must still go through every block."""

    def test_dead_datanode_falls_back(self, read, monkeypatch):
        blocks = BlockManager(node_count=4, replication=3)
        cube, dense = filled_cube(HopsFS(blocks=blocks,
                                         small_file_threshold=BLOCK_THRESHOLD))
        call, variables = READS[read]
        warm = call(cube)
        assert same(cube.sel("nir").read(), dense["nir"])
        blocks.fail_node(0)
        routed = RoutedBlocks(blocks, monkeypatch)
        assert same(call(cube), warm)
        assert routed.block_ids() == block_ids(cube, variables)
        assert 0 not in routed.nodes()

    def test_every_replica_corrupt_raises(self, read):
        checksums = BlockChecksums(verify=True)
        blocks = BlockManager(node_count=3, replication=3, checksums=checksums)
        cube, _ = filled_cube(HopsFS(blocks=blocks,
                                     small_file_threshold=BLOCK_THRESHOLD))
        call, variables = READS[read]
        call(cube)
        for block_id in block_ids(cube, variables):
            for node_id in blocks.block_locations(block_id):
                checksums.corrupt_replica(block_id, node_id)
        with pytest.raises(BlockCorruption):
            call(cube)

    def test_one_corrupt_replica_fails_over(self, read, monkeypatch):
        checksums = BlockChecksums(verify=True)
        blocks = BlockManager(node_count=4, replication=3, checksums=checksums)
        cube, _ = filled_cube(HopsFS(blocks=blocks,
                                     small_file_threshold=BLOCK_THRESHOLD))
        call, variables = READS[read]
        warm = call(cube)
        rotten = set()
        for block_id in block_ids(cube, variables):
            node_id = blocks.block_locations(block_id)[0]
            checksums.corrupt_replica(block_id, node_id)
            rotten.add((block_id, node_id))
        routed = RoutedBlocks(blocks, monkeypatch)
        assert same(call(cube), warm)
        assert routed.block_ids() == block_ids(cube, variables)
        assert not rotten & set(routed.served)


@pytest.fixture
def decodes(monkeypatch):
    """The payloads ``_load_chunk`` decodes, in order."""
    seen = []
    decode = cube_module.decode_chunk

    def counting_decode(payload):
        seen.append(payload)
        return decode(payload)

    monkeypatch.setattr(cube_module, "decode_chunk", counting_decode)
    return seen


class TestKeptStatsExactness:
    """A kept stat holds only while the namespace has lost no path."""

    def block_cube(self):
        return filled_cube(HopsFS(small_file_threshold=BLOCK_THRESHOLD))

    def test_reading_what_the_store_wrote_stats_nothing(self, monkeypatch):
        cube, dense = self.block_cube()

        def no_stat(path, deadline=None):
            raise AssertionError(f"stat({path}) on a kept path")

        monkeypatch.setattr(cube.store.fs, "stat", no_stat)
        assert same(cube.sel("nir").read(), dense["nir"])
        assert max(cube.store.writes.values()) == 1

    def test_deleted_chunk_fails_like_a_cold_read(self):
        cube, dense = self.block_cube()
        assert same(cube.sel("nir").read(), dense["nir"])
        cube.store.fs.delete(chunk_path(ROOT, "nir", ChunkKey(0, 1, 0)))
        with pytest.raises(StorageError, match="no such file or directory"):
            cube.sel("nir").read()
        assert same(cube.sel("red").read(), dense["red"])

    def test_moved_chunk_fails_until_moved_back(self):
        cube, dense = self.block_cube()
        assert same(cube.sel("nir").read(), dense["nir"])
        path = chunk_path(ROOT, "nir", ChunkKey(1, 0, 1))
        cube.store.fs.rename(path, path + ".moved")
        with pytest.raises(StorageError, match="no such file or directory"):
            cube.sel("nir").read()
        cube.store.fs.rename(path + ".moved", path)
        assert same(cube.sel("nir").read(), dense["nir"])

    @pytest.mark.parametrize("threshold", [BLOCK_THRESHOLD, 64 * 1024])
    def test_crash_and_recover(self, threshold):
        """Block-layout and inline chunks read the dense oracle after a
        metadata crash and recovery; between the two, reads fail typed."""
        kv = ShardedKVStore(durability=DurabilityLayer())
        fs = HopsFS(store=kv, small_file_threshold=threshold)
        cube, dense = filled_cube(fs)
        assert same(cube.sel("nir").read(), dense["nir"])
        fs.crash()
        with pytest.raises(StorageError):
            cube.sel("nir").read()
        fs.recover()
        for variable in cube.schema.variables:
            assert same(cube.sel(variable).read(), dense[variable])
        assert np.allclose(
            cube.zonal_series("nir", [WHOLE])[0],
            dense["nir"].mean(axis=(1, 2), dtype=np.float64), rtol=1e-6,
        )

    @pytest.mark.parametrize("threshold", [BLOCK_THRESHOLD, 64 * 1024])
    def test_a_fresh_store_over_the_same_fs_reads_the_same(self, threshold):
        """Block-layout bytes live on the datanodes and inline bytes in the
        metadata store, so a store that wrote nothing reads them too."""
        fs = HopsFS(small_file_threshold=threshold)
        cube, dense = filled_cube(fs)
        warm = {v: cube.sel(v).read() for v in cube.schema.variables}
        reopened = Cube.open(ChunkStore(fs=fs), ROOT)
        for variable in cube.schema.variables:
            assert same(reopened.sel(variable).read(), warm[variable])
            assert same(warm[variable], dense[variable])

    def test_deleting_a_block_chunk_frees_its_bytes(self):
        fs = HopsFS(small_file_threshold=BLOCK_THRESHOLD)
        store = ChunkStore(fs=fs)
        store.makedirs("/chunks")
        nodes = fs.blocks.nodes
        used = [node.used_bytes for node in nodes]
        payload = encode_chunk(np.ones((2, 32, 32), dtype="float32"))
        refs = sys.getrefcount(payload)
        store.put("/chunks/a", payload)
        assert store.get("/chunks/a") is payload
        block_ids = fs.stat("/chunks/a").block_ids
        assert all(block_id in nodes[node_id].data for block_id in block_ids
                   for node_id in fs.blocks.block_locations(block_id))
        fs.delete("/chunks/a")
        assert not any(block_id in node.blocks or block_id in node.data
                       for node in nodes for block_id in block_ids)
        assert [node.used_bytes for node in nodes] == used
        # No datanode, ledger or store entry keeps the payload alive.
        assert sys.getrefcount(payload) == refs
        with pytest.raises(StorageError, match="no such file or directory"):
            store.get("/chunks/a")

    def test_only_an_identical_payload_skips_the_decode(self, decodes,
                                                         monkeypatch):
        cube, dense = self.block_cube()
        chunks = len(chunk_paths(cube, ("nir",)))
        assert same(cube.sel("nir").read(), dense["nir"])
        assert len(decodes) == chunks
        assert same(cube.sel("nir").read(), dense["nir"])
        assert len(decodes) == chunks  # the same payload objects came back
        get = cube.store.get
        monkeypatch.setattr(cube.store, "get",
                            lambda path: bytes(bytearray(get(path))))
        for _ in range(2):
            assert same(cube.sel("nir").read(), dense["nir"])
        assert len(decodes) == 3 * chunks

    def test_inline_chunks_decode_again_after_recover(self, decodes):
        kv = ShardedKVStore(durability=DurabilityLayer())
        fs = HopsFS(store=kv)
        cube, dense = filled_cube(fs)
        chunks = len(chunk_paths(cube, ("nir",)))
        cube.sel("nir").read()
        fs.crash()
        fs.recover()
        assert same(cube.sel("nir").read(), dense["nir"])
        assert len(decodes) == 2 * chunks

    def test_metadata_outage_serves_warm_block_chunks_only(self):
        """The documented change: once stat'ed, a block-layout chunk reads
        without the metadata store, and correctly; an inline chunk's bytes
        live there, so its read still fails typed."""
        injector = FaultInjector(FaultPlan())
        kv = ShardedKVStore(injector=injector)
        fs = HopsFS(store=kv, small_file_threshold=BLOCK_THRESHOLD)
        blocks_cube, dense = filled_cube(fs)
        inline_cube, _ = filled_cube(fs, chunk=(1, 8, 8), root="/cubes/inline")
        assert same(blocks_cube.sel("nir").read(), dense["nir"])
        assert same(inline_cube.sel("nir").read(), dense["nir"])
        injector.plan = FaultPlan(shard_outages=tuple(
            ShardOutage(shard=shard) for shard in range(kv.shard_count)
        ))
        assert same(blocks_cube.sel("nir").read(), dense["nir"])
        with pytest.raises(ShardUnavailable):
            inline_cube.sel("nir").read()


@pytest.mark.parametrize("verify", [False, True])
def test_a_bit_flip_on_the_serving_replica(verify, monkeypatch):
    """E20 end to end: unverified, the flipped byte reaches the answer;
    verified, the read fails over and equals the dense oracle."""

    def build():
        blocks = BlockManager(node_count=4, replication=3,
                              checksums=BlockChecksums(verify=verify))
        cube, dense = filled_cube(HopsFS(blocks=blocks,
                                         small_file_threshold=BLOCK_THRESHOLD))
        return blocks, cube, dense

    # Placement and read rotation are deterministic, so a twin's read names
    # the replicas that will serve the same read of the cube under test.
    twin_blocks, twin, _ = build()
    routed = RoutedBlocks(twin_blocks, monkeypatch)
    twin.sel("nir").read()
    blocks, cube, dense = build()
    plan = FaultPlan(bit_flips=tuple(
        BitFlip(node_id=node_id, block_id=block_id)
        for block_id, node_id in routed.served
    ))
    assert blocks.inject_silent_faults(FaultInjector(plan)) == len(routed.served)
    got = cube.sel("nir").read()
    if verify:
        assert same(got, dense["nir"])
    else:
        assert got.shape == dense["nir"].shape
        # One flipped byte per chunk: one wrong value per chunk read.
        assert np.count_nonzero(got != dense["nir"]) == len(routed.served)
