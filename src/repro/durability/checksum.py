"""End-to-end block checksums (experiment E20).

Datanodes hold each replica's bytes and generation stamp; the ledger holds
what they are checked against: a CRC32 of each block taken at write time
and the block's generation, which ``update_block`` bumps on every live
replica (as in HDFS). A replica is intact when its stamp is current and its
bytes are the written ones — one that still holds the written object needs
no checksum pass. A silent fault rots one replica and leaves the ledger
alone: a :class:`~repro.faults.BitFlip` gives it its own copy with a flipped
byte, a :class:`~repro.faults.StaleReplica` sets its stamp back one
generation.

:class:`BlockChecksums` is the optional ledger a
:class:`~repro.hopsfs.BlockManager` is built with:

* ``verify=True`` — reads check the chosen replica and transparently fail
  over to an intact one (``durability.corrupt_reads_detected``); a block
  with no intact replica raises :class:`~repro.errors.BlockCorruption`.
* ``verify=False`` — the ledger still checks (so a bench can *count* the
  corrupt reads a checksum-less deployment serves,
  ``durability.corrupt_reads_served``) but never changes which replica a
  read picks: the reader gets the rotten bytes, exactly as with no ledger.
* ``None`` (the manager's default) — no ledger at all, the pre-E20 path.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import StorageError
from repro.obs import Observability, resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.hopsfs.blocks import BlockManager


class BlockChecksums:
    """Write-time CRC32s and generations, checked against datanode bytes."""

    def __init__(self, verify: bool = True,
                 obs: Optional[Observability] = None):
        self.verify = verify
        self._obs = resolve(obs)
        # block_id -> (the written object, its CRC32)
        self._written: Dict[int, Tuple[bytes, int]] = {}
        self._generation: Dict[int, int] = {}  # block_id -> generation
        self._blocks: Optional["BlockManager"] = None

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by BlockManager)
    # ------------------------------------------------------------------

    def attach(self, blocks: "BlockManager") -> None:
        """Check the replicas of *blocks*' datanodes."""
        self._blocks = blocks

    def generation(self, block_id: int) -> int:
        return self._generation.get(block_id, 0)

    def on_write(self, block_id: int, data: bytes) -> None:
        """A block was written: take its CRC32, generation 0."""
        self._written[block_id] = (data, zlib.crc32(data))
        self._generation[block_id] = 0

    def on_free(self, block_id: int) -> None:
        self._written.pop(block_id, None)
        self._generation.pop(block_id, None)

    def on_update(self, block_id: int) -> int:
        """The block was rewritten: bump and return its generation."""
        if block_id not in self._generation:
            raise StorageError(f"no checksum tracked for block {block_id}")
        self._generation[block_id] += 1
        return self._generation[block_id]

    # ------------------------------------------------------------------
    # Silent-fault application
    # ------------------------------------------------------------------

    def corrupt_replica(self, block_id: int, node_id: int,
                        kind: str = "bit_flip") -> bool:
        """Rot one replica in place; returns False if it does not exist.

        ``bit_flip`` gives the replica its own copy with the last data byte
        flipped (a second flip restores it); ``stale`` sets its stamp back
        to the previous generation (a no-op at generation 0 — a replica
        that never saw a second write cannot be stale).
        """
        node = self._blocks.nodes[node_id]
        data = node.data.get(block_id)
        if data is None:
            return False
        if kind == "bit_flip":
            rotten = bytearray(data)
            rotten[-1] ^= 0xFF
            node.data[block_id] = bytes(rotten)
        elif kind == "stale":
            generation = self.generation(block_id)
            if generation == 0:
                return False
            node.stamps[block_id] = generation - 1
        else:
            raise StorageError(f"unknown corruption kind {kind!r}")
        return True

    def apply_silent_faults(self, injector: "FaultInjector") -> int:
        """Apply the plan's BitFlip/StaleReplica entries; returns count."""
        applied = 0
        for flip in injector.block_bit_flips():
            if self.corrupt_replica(flip.block_id, flip.node_id, "bit_flip"):
                applied += 1
        for stale in injector.block_stale_replicas():
            if self.corrupt_replica(stale.block_id, stale.node_id, "stale"):
                applied += 1
        return applied

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def replica_intact(self, block_id: int, node_id: int) -> bool:
        """Is the replica's stamp current and are its bytes the written ones?

        A replica holding the written object itself is intact without a
        checksum pass; any other replica's bytes are checked against the
        write-time CRC32.
        """
        written, crc = self._written[block_id]
        node = self._blocks.nodes[node_id]
        if node.stamps.get(block_id) != self._generation[block_id]:
            return False
        data = node.data[block_id]
        return data is written or zlib.crc32(data) == crc

    def repair_replica(self, block_id: int, node_id: int) -> None:
        """Overwrite a replica with an intact sibling's bytes and stamp."""
        nodes = self._blocks.nodes
        for owner in self._blocks.block_locations(block_id):
            if owner != node_id and self.replica_intact(block_id, owner):
                nodes[node_id].data[block_id] = nodes[owner].data[block_id]
                nodes[node_id].stamps[block_id] = nodes[owner].stamps[block_id]
                return
        raise StorageError(f"block {block_id}: no intact replica to repair from")

    def note_detected(self, block_id: int, node_id: int) -> None:
        self._obs.metrics.counter(
            "durability.corrupt_reads_detected", node=node_id
        ).inc()

    def note_served(self, block_id: int, node_id: int) -> None:
        self._obs.metrics.counter(
            "durability.corrupt_reads_served", node=node_id
        ).inc()

    @property
    def tracked_replicas(self) -> int:
        """Replicas on live datanodes of the blocks the ledger checks."""
        return sum(len(self._blocks.block_locations(block_id))
                   for block_id in self._written)
