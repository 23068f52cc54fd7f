"""Durability & data integrity for the simulated platform (experiment E20).

The fault-injection work (E17) made the platform survive *loud* failures —
crashes, outages, timeouts. This package is about the quiet ones: power
loss between a write's acknowledgement and the next checkpoint, a cosmic
ray in a cold replica, a write torn in half by the crash that interrupted
it, a snapshot that rotted on disk. Four pieces:

* :class:`DurabilityLayer` / :class:`WriteAheadLog` — per-shard
  write-ahead logging for :class:`~repro.hopsfs.ShardedKVStore`. Records
  are really framed (length + CRC32 + pickled payload) in a flat byte
  buffer that survives :meth:`~repro.hopsfs.ShardedKVStore.crash`;
  :meth:`~repro.hopsfs.ShardedKVStore.recover` rebuilds every shard from
  its latest checksummed :class:`ShardSnapshot` plus log replay. 2PC
  transactions stage per-participant prepares before any commit marker, and
  recovery applies a transaction iff a marker survives anywhere.
* :class:`BlockChecksums` — end-to-end write-time CRC32s and generations
  for :class:`~repro.hopsfs.BlockManager` replicas. Verified reads detect
  silent corruption (:class:`~repro.faults.BitFlip`,
  :class:`~repro.faults.StaleReplica`) and fail over to intact copies; the
  :class:`Scrubber` sweeps cold replicas and repairs from healthy siblings.
* :mod:`~repro.durability.fsck` — cross-layer invariant checking: shard
  routing, WAL ↔ state agreement, block ownership ↔ datanode inventory,
  replication honesty, metadata ↔ block referential integrity.
* :class:`~repro.durability.harness.CrashPointHarness` — kills the store
  at every WAL record boundary (clean and torn) and proves the
  all-or-nothing oracle: no committed write lost, no aborted write visible.

Everything defaults **off**: a store or block manager built without these
collaborators runs the exact pre-E20 byte path (the repo's null-object
convention, pinned by the parity suite).
"""

from repro.durability.checksum import BlockChecksums
from repro.durability.fsck import (
    FsckReport,
    fsck_blocks,
    fsck_filesystem,
    fsck_store,
)
from repro.durability.harness import CrashPointHarness, CrashSweepReport
from repro.durability.scrub import ScrubReport, Scrubber
from repro.durability.snapshot import ShardSnapshot
from repro.durability.wal import (
    DurabilityLayer,
    RecoveryReport,
    WriteAheadLog,
)

__all__ = [
    "BlockChecksums",
    "CrashPointHarness",
    "CrashSweepReport",
    "DurabilityLayer",
    "FsckReport",
    "RecoveryReport",
    "ScrubReport",
    "Scrubber",
    "ShardSnapshot",
    "WriteAheadLog",
    "fsck_blocks",
    "fsck_filesystem",
    "fsck_store",
]
