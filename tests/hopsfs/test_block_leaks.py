"""A failed write holds no blocks, and fsck reports a block no file claims."""

import pytest

from repro.errors import StorageError
from repro.hopsfs import BlockManager, HopsFS


def tight_blocks():
    """Room for two of a 300-byte file's three 100-byte blocks."""
    return BlockManager(
        node_count=2, node_capacity_bytes=150, block_size=100, replication=1
    )


def held(blocks: BlockManager):
    return blocks.block_count, sum(node.used_bytes for node in blocks.nodes)


def test_allocate_file_frees_what_it_placed_when_a_block_fails():
    blocks = tight_blocks()
    with pytest.raises(StorageError):
        blocks.allocate_file(b"x" * 300)
    assert held(blocks) == (0, 0)
    assert len(blocks.allocate_file(b"y" * 200)) == 2  # the space is free again


def test_create_that_runs_out_of_blocks_leaves_nothing():
    fs = HopsFS(blocks=tight_blocks(), small_file_threshold=10)
    with pytest.raises(StorageError):
        fs.create("/f", b"x" * 300)
    assert held(fs.blocks) == (0, 0)
    assert not fs.exists("/f")
    assert fs.fsck().ok


def test_create_frees_its_blocks_when_the_record_write_fails():
    fs = HopsFS(small_file_threshold=10)

    def refuse(*args, **kwargs):
        raise StorageError("metadata shard unavailable")

    fs.store.put = refuse
    with pytest.raises(StorageError):
        fs.create("/f", b"x" * 500)
    assert held(fs.blocks) == (0, 0)
    assert fs.fsck().ok


def test_fsck_reports_a_block_no_file_claims():
    fs = HopsFS(small_file_threshold=10)
    fs.create("/kept", b"k" * 64)
    [orphan] = fs.blocks.allocate_file(b"o" * 32)
    report = fs.fsck()
    assert report.violations == [f"block {orphan} is claimed by no file"]
    fs.blocks.free_blocks([orphan])
    assert fs.fsck().ok


def test_delete_keeps_the_blocks_when_the_record_delete_fails():
    fs = HopsFS(small_file_threshold=10)
    fs.create("/f", b"x" * 500)

    def refuse(*args, **kwargs):
        raise StorageError("metadata shard unavailable")

    fs.store.delete = refuse
    with pytest.raises(StorageError):
        fs.delete("/f")
    assert fs.read("/f") == b"x" * 500
    assert fs.fsck().ok
