"""Checksummed shard snapshots (experiment E20).

A snapshot is the pickled image of one shard's partition-indexed state
(``{partition_key: {key: value}}``, the store's own shape — nothing is
converted on the way in or out) plus the WAL byte offset it covers:
recovery restores the image and replays only the log suffix past that
offset. The image carries a CRC taken at capture time, so a snapshot that
rots on "disk" (the seeded
:class:`~repro.faults.SnapshotCorruption` fault, or :meth:`ShardSnapshot.rot`)
is *detected* at restore instead of silently resurrecting garbage state —
recovery then falls back to a from-scratch replay when the full log is
still around, and raises :class:`~repro.errors.SnapshotCorrupted` when the
covered prefix was truncated away.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, Dict

from repro.errors import SnapshotCorrupted


class ShardSnapshot:
    """One shard's state image, checksummed, pinned to a WAL offset."""

    def __init__(self, shard: int, data: bytes, crc: int, wal_offset: int,
                 index: int):
        self.shard = shard
        self.data = data
        self.crc = crc
        self.wal_offset = wal_offset
        self.index = index

    @classmethod
    def capture(cls, shard: int, state: Dict[Any, Any], wal_offset: int,
                index: int) -> "ShardSnapshot":
        """Serialise ``state`` as it is right now; pickling is the copy, so
        the caller hands over the live dictionary itself."""
        data = pickle.dumps(state, protocol=4)
        return cls(shard, data, zlib.crc32(data), wal_offset, index)

    def restore(self) -> Dict[Any, Any]:
        """Verify and deserialise; raises :class:`SnapshotCorrupted`."""
        if zlib.crc32(self.data) != self.crc:
            raise SnapshotCorrupted(
                f"snapshot {self.index} of shard {self.shard} failed its "
                "checksum",
                shard=self.shard,
            )
        state = pickle.loads(self.data)
        if not isinstance(state, dict):
            raise SnapshotCorrupted(
                f"snapshot {self.index} of shard {self.shard} decoded to "
                f"{type(state).__name__}, not a dict",
                shard=self.shard,
            )
        return state

    def rot(self) -> None:
        """Flip one byte of the image in place (silent corruption)."""
        if not self.data:
            # An empty image cannot rot a payload byte; rot the CRC instead.
            self.crc ^= 0xFFFF
            return
        corrupted = bytearray(self.data)
        corrupted[len(corrupted) // 2] ^= 0x40
        self.data = bytes(corrupted)

    @property
    def size_bytes(self) -> int:
        return len(self.data)
