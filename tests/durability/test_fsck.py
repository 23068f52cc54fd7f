"""fsck: clean on healthy systems, loud on seeded violations."""

import pytest

from repro.durability import (
    BlockChecksums,
    DurabilityLayer,
    fsck_blocks,
    fsck_filesystem,
    fsck_store,
)
from repro.errors import DataCorruption
from repro.hopsfs import BlockManager, HopsFS, ShardedKVStore
from repro.hopsfs.kvstore import raw_pop, raw_put


def healthy_fs():
    fs = HopsFS(
        blocks=BlockManager(
            node_count=4, block_size=1024, replication=2,
            checksums=BlockChecksums(),
        ),
        small_file_threshold=64,
        durability=DurabilityLayer(),
    )
    fs.makedirs("/data")
    fs.create("/data/small", b"x" * 10)
    fs.create("/data/big", b"x" * 5000)
    return fs


class TestCleanSystems:
    def test_healthy_filesystem_is_clean(self):
        report = healthy_fs().fsck()
        assert report.ok
        assert report.checks > 0
        assert "clean" in report.summary()

    def test_store_without_durability_is_checkable(self):
        store = ShardedKVStore()
        store.put(1, "a", 1)
        assert fsck_store(store).ok

    def test_verify_raises_on_dirty_report(self):
        report = fsck_store(ShardedKVStore())
        report.add("made-up violation")
        with pytest.raises(DataCorruption):
            report.verify()


class TestStoreViolations:
    def test_misrouted_key_is_flagged(self):
        store = ShardedKVStore(shard_count=4)
        store.put(1, "a", 1)
        # Plant a key on the wrong shard behind the router's back.
        wrong = (store.shard_of(5) + 1) % store.shard_count
        raw_put(store._shards[wrong], 5, "ghost", 1)
        report = fsck_store(store)
        assert not report.ok
        assert "routes to shard" in report.violations[0]

    def test_unlogged_write_is_flagged_as_unjournaled(self):
        store = ShardedKVStore(shard_count=2, durability=DurabilityLayer())
        store.put(0, "a", 1)
        # A write that bypassed the WAL: volatile state the log can't rebuild.
        raw_put(store._shards[store.shard_of(0)], 0, "sneaky", 1)
        report = fsck_store(store)
        assert not report.ok
        assert any("absent from the durable log" in v for v in report.violations)

    def test_lost_update_is_flagged(self):
        store = ShardedKVStore(shard_count=2, durability=DurabilityLayer())
        store.put(0, "a", 1)
        # Volatile state silently dropped an acknowledged write.
        assert raw_pop(store._shards[store.shard_of(0)], 0, "a") == 1
        report = fsck_store(store)
        assert not report.ok
        assert any("resurrects" in v for v in report.violations)


class TestBlockViolations:
    def make_manager(self):
        manager = BlockManager(node_count=4, block_size=100, replication=2)
        manager.allocate_file(200)  # blocks 0, 1
        return manager

    def test_healthy_manager_is_clean(self):
        assert fsck_blocks(self.make_manager()).ok

    def test_inventory_mismatch_is_flagged(self):
        manager = self.make_manager()
        owner = manager.block_locations(0)[0]
        manager.nodes[owner].blocks[0] = 999  # inventory disagrees on size
        report = fsck_blocks(manager)
        assert any("inventory says" in v for v in report.violations)

    def test_orphan_inventory_entry_is_flagged(self):
        manager = self.make_manager()
        manager.nodes[0].blocks[777] = 100
        manager.nodes[0].used_bytes += 100
        report = fsck_blocks(manager)
        assert any("unknown block 777" in v for v in report.violations)

    def test_dead_owner_is_flagged(self):
        manager = self.make_manager()
        owner = manager.block_locations(0)[0]
        manager.nodes[owner].alive = False  # die without deregistering
        report = fsck_blocks(manager)
        assert any("dead" in v for v in report.violations)

    def test_byte_accounting_mismatch_is_flagged(self):
        manager = self.make_manager()
        manager.nodes[1].used_bytes += 1
        report = fsck_blocks(manager)
        assert any("used_bytes" in v for v in report.violations)


class TestFilesystemViolations:
    def test_dangling_block_reference_is_flagged(self):
        fs = healthy_fs()
        fs.blocks.free_blocks(list(fs.blocks.block_table()))  # yank the rug
        report = fsck_filesystem(fs)
        assert any("unknown block" in v for v in report.violations)

    def test_double_claimed_block_is_flagged(self):
        fs = healthy_fs()
        stat = fs.stat("/data/big")
        record = {
            "inode": 99, "is_dir": False, "size": 5000,
            "inline": None, "blocks": list(stat.block_ids),
        }
        fs.store.put(0, "thief", record)
        report = fsck_filesystem(fs)
        assert any("claimed by both" in v for v in report.violations)

    def test_duplicate_inode_is_flagged(self):
        fs = healthy_fs()
        fs.store.put(0, "clone", {"inode": 1, "is_dir": True, "size": 0})
        fs.store.put(0, "clone2", {"inode": 1, "is_dir": True, "size": 0})
        report = fsck_filesystem(fs)
        assert any("inode 1 appears" in v for v in report.violations)

    def test_orphaned_subtree_is_flagged(self):
        # A directory cycle cut off from the root (what a rename of a
        # directory into its own subtree used to leave behind): every
        # per-record check passes, only the walk from the root notices.
        fs = healthy_fs()
        fs.store.put(50, "loop", {"inode": 51, "is_dir": True, "size": 0})
        fs.store.put(51, "back", {"inode": 50, "is_dir": True, "size": 0})
        fs.store.put(51, "lost", {
            "inode": 52, "is_dir": False, "size": 1, "inline": b"x",
            "blocks": [],
        })
        report = fsck_filesystem(fs)
        orphans = [v for v in report.violations if "orphaned_inode" in v]
        assert len(orphans) == 3
        assert any("inode 52" in v for v in orphans)

    def test_reachable_tree_has_no_orphans(self):
        fs = healthy_fs()
        fs.makedirs("/data/deep/er")
        fs.create("/data/deep/er/f", b"x")
        fs.rename("/data/deep", "/moved")
        assert fsck_filesystem(fs).ok
