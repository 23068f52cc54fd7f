"""HopsFS filesystem semantics tests."""

import pytest

from repro.errors import StorageError
from repro.hopsfs import BlockManager, HopsFS, SingleLeaderFS
from repro.hopsfs.workload import run_metadata_workload


@pytest.fixture
def fs():
    return HopsFS(blocks=BlockManager(node_count=4, block_size=1024, replication=2))


class TestDirectories:
    def test_mkdir_and_list(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        assert fs.listdir("/") == ["a"]
        assert fs.listdir("/a") == ["b"]
        assert fs.listdir("/a/b") == []

    def test_mkdir_missing_parent(self, fs):
        with pytest.raises(StorageError):
            fs.mkdir("/missing/child")

    def test_mkdir_duplicate(self, fs):
        fs.mkdir("/a")
        with pytest.raises(StorageError):
            fs.mkdir("/a")

    def test_makedirs(self, fs):
        fs.makedirs("/x/y/z")
        assert fs.listdir("/x/y") == ["z"]
        fs.makedirs("/x/y/z")  # idempotent

    def test_relative_path_rejected(self, fs):
        with pytest.raises(StorageError):
            fs.mkdir("relative")

    def test_stat_directory(self, fs):
        fs.mkdir("/d")
        stat = fs.stat("/d")
        assert stat.is_dir and stat.size_bytes == 0


class TestFiles:
    def test_create_small_file_inline(self, fs):
        stat = fs.create("/small.txt", b"hello")
        assert stat.inline is True
        assert stat.block_ids == ()
        assert fs.read("/small.txt") == b"hello"

    def test_create_large_file_blocks(self, fs):
        data = b"x" * 200_000  # above 64 KB threshold, block size 1024
        stat = fs.create("/big.bin", data)
        assert stat.inline is False
        assert len(stat.block_ids) == (200_000 + 1023) // 1024
        assert fs.read("/big.bin") == data  # joined from the datanodes
        assert fs.stat("/big.bin").size_bytes == 200_000

    def test_threshold_boundary(self):
        fs = HopsFS(small_file_threshold=10,
                    blocks=BlockManager(block_size=1024, replication=1, node_count=1))
        assert fs.create("/at.bin", b"x" * 10).inline is True
        assert fs.create("/above.bin", b"x" * 11).inline is False

    def test_create_duplicate(self, fs):
        fs.create("/f", b"1")
        with pytest.raises(StorageError):
            fs.create("/f", b"2")

    def test_read_missing(self, fs):
        with pytest.raises(StorageError):
            fs.read("/missing")

    def test_read_directory_fails(self, fs):
        fs.mkdir("/d")
        with pytest.raises(StorageError):
            fs.read("/d")

    def test_exists(self, fs):
        fs.create("/f", b"")
        assert fs.exists("/f")
        assert not fs.exists("/g")

    def test_delete_file_frees_blocks(self, fs):
        data = b"x" * 100_000
        fs.create("/big", data)
        blocks_before = fs.blocks.block_count
        fs.delete("/big")
        assert fs.blocks.block_count < blocks_before
        assert not fs.exists("/big")

    def test_delete_nonempty_dir(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f", b"x")
        with pytest.raises(StorageError):
            fs.delete("/d")
        fs.delete("/d/f")
        fs.delete("/d")
        assert not fs.exists("/d")

    def test_rename(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.create("/a/f", b"data")
        fs.rename("/a/f", "/b/g")
        assert not fs.exists("/a/f")
        assert fs.read("/b/g") == b"data"

    def test_rename_conflict(self, fs):
        fs.create("/f", b"1")
        fs.create("/g", b"2")
        with pytest.raises(StorageError):
            fs.rename("/f", "/g")

    def test_rename_directory_into_own_subtree_is_refused(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.create("/a/b/f", b"x")
        hints_before = dict(fs.dir_cache_stats)
        entries_before = fs.store.storage_entries()
        for dst in ("/a/b/c", "/a/c", "/a//b/c"):
            with pytest.raises(StorageError, match="into itself"):
                fs.rename("/a", dst)
        # Refused before any state or cache change: nothing moved, nothing
        # evicted, and the tree is still reachable from the root.
        assert fs.store.storage_entries() == entries_before
        assert fs.dir_cache_stats["evictions"] == hints_before["evictions"]
        assert fs.listdir("/") == ["a"]
        assert fs.read("/a/b/f") == b"x"
        assert fs.fsck().ok

    def test_rename_to_sibling_with_shared_name_prefix_is_allowed(self, fs):
        # "/ab" is not inside "/a": the guard compares path components.
        fs.mkdir("/a")
        fs.mkdir("/ab")
        fs.create("/a/f", b"x")
        fs.rename("/a", "/ab/a")
        assert fs.read("/ab/a/f") == b"x"
        assert fs.fsck().ok


class TestBlocks:
    def test_replication(self):
        manager = BlockManager(node_count=4, block_size=100, replication=3)
        [block_id] = manager.allocate_file(50)
        assert len(manager.block_locations(block_id)) == 3
        assert manager.total_stored_bytes() == 150

    def test_balance(self):
        manager = BlockManager(node_count=4, block_size=100, replication=1)
        for _ in range(40):
            manager.allocate_file(100)
        assert manager.balance_ratio() == pytest.approx(1.0)

    def test_capacity_exhaustion(self):
        manager = BlockManager(
            node_count=2, node_capacity_bytes=100, block_size=100, replication=2
        )
        manager.allocate_file(100)
        with pytest.raises(StorageError):
            manager.allocate_file(100)

    def test_replication_validation(self):
        with pytest.raises(StorageError):
            BlockManager(node_count=2, replication=3)

    def test_unknown_block(self):
        with pytest.raises(StorageError):
            BlockManager().block_locations(999)


class TestScaling:
    """The paper's E1 claim in miniature: sharded metadata scales, a single
    leader does not."""

    def test_hopsfs_beats_single_leader(self):
        hops = HopsFS(blocks=BlockManager())
        hdfs = SingleLeaderFS()
        result_hops = run_metadata_workload(hops, operations=2000, seed=1)
        result_hdfs = run_metadata_workload(hdfs, operations=2000, seed=1)
        assert result_hops.ops_per_second > result_hdfs.ops_per_second * 1.5

    def test_throughput_scales_with_shards(self):
        from repro.hopsfs.kvstore import ShardedKVStore

        throughputs = {}
        for shards in (1, 4, 16):
            fs = HopsFS(store=ShardedKVStore(shard_count=shards))
            result = run_metadata_workload(fs, operations=3000, seed=2)
            throughputs[shards] = result.ops_per_second
        assert throughputs[4] > throughputs[1] * 2
        assert throughputs[16] > throughputs[4] * 1.5

    def test_small_file_threshold_reduces_block_ops(self):
        small_on = HopsFS(blocks=BlockManager(block_size=1024),
                          small_file_threshold=64 * 1024)
        small_off = HopsFS(blocks=BlockManager(block_size=1024),
                           small_file_threshold=0)
        for i in range(50):
            small_on.create(f"/f{i}", b"x" * 1000)
            small_off.create(f"/f{i}", b"x" * 1000)
        assert small_on.blocks.block_count == 0
        assert small_off.blocks.block_count == 50

    def test_rename_multi_shard_fraction(self):
        fs = HopsFS()
        fs.mkdir("/a")
        fs.mkdir("/b")
        for i in range(20):
            fs.create(f"/a/f{i}", b"x")
        fs.store.reset_accounting()
        for i in range(20):
            fs.rename(f"/a/f{i}", f"/b/f{i}")
        # Most renames cross shards (parents land on different shards with
        # high probability across 4 shards).
        assert fs.store.multi_shard_fraction >= 0.0  # recorded
        assert fs.store.op_count > 0


class TestDirHintCache:
    """Scoped invalidation of directory hints (the E19 bugfix): a delete or
    rename evicts exactly its subtree, never the hot ancestors."""

    def warm(self, fs, *paths):
        for path in paths:
            fs.listdir(path)

    def test_sibling_delete_keeps_hot_ancestors(self, fs):
        fs.makedirs("/data/a")
        fs.mkdir("/data/b")
        self.warm(fs, "/", "/data", "/data/a", "/data/b")
        assert ("data",) in fs._dir_cache and ("data", "b") in fs._dir_cache
        fs.delete("/data/b")
        # The regression the seed code failed: unrelated hot hints survive.
        assert () in fs._dir_cache
        assert ("data",) in fs._dir_cache
        assert ("data", "a") in fs._dir_cache
        assert ("data", "b") not in fs._dir_cache

    def test_hot_ancestor_resolution_is_free_after_sibling_delete(self, fs):
        fs.makedirs("/data/a")
        fs.mkdir("/data/b")
        self.warm(fs, "/data", "/data/a")
        fs.delete("/data/b")
        hits_before = fs.dir_cache_stats["hits"]
        fs.listdir("/data/a")
        assert fs.dir_cache_stats["hits"] > hits_before

    def test_delete_then_recreate_resolves_the_new_inode(self, fs):
        fs.makedirs("/data/x")
        self.warm(fs, "/data/x")
        old_inode = fs.stat("/data/x").inode_id
        fs.delete("/data/x")
        fs.mkdir("/data/x")
        fs.create("/data/x/f", b"hello")
        assert fs.stat("/data/x").inode_id != old_inode
        assert fs.listdir("/data/x") == ["f"]
        assert fs.read("/data/x/f") == b"hello"

    def test_rename_evicts_only_the_moved_subtree(self, fs):
        fs.makedirs("/a/sub/deep")
        fs.mkdir("/b")
        self.warm(fs, "/a", "/a/sub", "/a/sub/deep", "/b")
        fs.rename("/a/sub", "/b/sub")
        assert ("a",) in fs._dir_cache and ("b",) in fs._dir_cache
        assert ("a", "sub") not in fs._dir_cache
        assert ("a", "sub", "deep") not in fs._dir_cache
        assert fs.listdir("/a") == []
        assert fs.listdir("/b/sub") == ["deep"]

    def test_file_delete_evicts_nothing(self, fs):
        fs.mkdir("/data")
        fs.create("/data/f", b"x")
        self.warm(fs, "/", "/data")
        evictions_before = fs.dir_cache_stats["evictions"]
        fs.delete("/data/f")
        assert fs.dir_cache_stats["evictions"] == evictions_before
        assert ("data",) in fs._dir_cache

    def test_bounded_capacity_thrashes_but_stays_correct(self):
        from repro.cache import DirHintCache

        fs = HopsFS(dir_cache=DirHintCache(capacity=2))
        for d in range(6):
            fs.makedirs(f"/d{d}/sub")
            fs.create(f"/d{d}/sub/f", b"x")
        assert len(fs._dir_cache) <= 2
        assert fs.dir_cache_stats["evictions"] > 0
        for d in range(6):
            assert fs.read(f"/d{d}/sub/f") == b"x"

    def test_negative_caching_replays_failures_cheaply(self):
        from repro.cache import DirHintCache

        fs = HopsFS(dir_cache=DirHintCache(negative=True))
        for _ in range(3):
            with pytest.raises(StorageError, match="no such directory"):
                fs.stat("/nope/file")
        assert fs.dir_cache_stats["negative_hits"] >= 2

    def test_negative_entry_invalidated_by_mkdir(self):
        from repro.cache import DirHintCache

        fs = HopsFS(dir_cache=DirHintCache(negative=True))
        with pytest.raises(StorageError):
            fs.stat("/nope/file")
        fs.mkdir("/nope")
        fs.create("/nope/file", b"now real")
        assert fs.read("/nope/file") == b"now real"

    def test_negative_entry_invalidated_by_rename(self):
        from repro.cache import DirHintCache

        fs = HopsFS(dir_cache=DirHintCache(negative=True))
        fs.makedirs("/src/inner")
        with pytest.raises(StorageError):
            fs.stat("/dst/x")  # remembered failure under /dst
        fs.rename("/src", "/dst")
        assert fs.listdir("/dst") == ["inner"]
