"""Block storage: datanodes, placement, replication, and integrity.

Datanodes hold the bytes: every replica of a block holds the same
zero-copy slice of the written payload (a one-block file's replicas hold
the payload itself), so replication copies nothing.

End-to-end checksums (experiment E20): an optional
:class:`~repro.durability.BlockChecksums` ledger takes a CRC32 of every
block at write time. With verification on, :meth:`BlockManager.read_block`
checks the replica it picked and transparently fails over to an intact
one — a silent :class:`~repro.faults.BitFlip` or
:class:`~repro.faults.StaleReplica` degrades a read instead of corrupting
it — and the :class:`~repro.durability.Scrubber` sweeps replicas repairing
what still has a healthy copy. Without a ledger (the default) the manager
runs the exact pre-E20 path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union, TYPE_CHECKING

from repro.errors import BlockCorruption, StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.checksum import BlockChecksums
    from repro.faults.injector import FaultInjector

DEFAULT_BLOCK_SIZE = 128 * 1024 * 1024  # 128 MB, the HDFS default
DEFAULT_REPLICATION = 3


@dataclass
class DataNode:
    """One storage node: its replicas' sizes, bytes and generation stamps."""

    node_id: int
    capacity_bytes: int
    used_bytes: int = 0
    blocks: Dict[int, int] = field(default_factory=dict)  # block_id -> bytes
    alive: bool = True
    data: Dict[int, bytes] = field(default_factory=dict, repr=False)  # contents
    stamps: Dict[int, int] = field(default_factory=dict)  # block_id -> generation

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def store(self, block_id: int, data: bytes, stamp: int) -> None:
        size = len(data)
        if size > self.free_bytes:
            raise StorageError(
                f"datanode {self.node_id} full: need {size}, free {self.free_bytes}"
            )
        self.blocks[block_id] = size
        self.data[block_id] = data
        self.stamps[block_id] = stamp
        self.used_bytes += size

    def drop(self, block_id: int) -> None:
        size = self.blocks.pop(block_id, 0)
        self.data.pop(block_id, None)
        self.stamps.pop(block_id, None)
        self.used_bytes -= size


class BlockManager:
    """Allocates blocks across datanodes with replication.

    Placement is round-robin over the nodes with enough free space, which
    keeps the simulation deterministic and balanced. Replica reads that
    cannot use the caller's preferred node rotate deterministically over
    the survivors (seeded by ``read_rotation_seed``) instead of always
    landing on the lowest-id one.
    """

    def __init__(
        self,
        node_count: int = 4,
        node_capacity_bytes: int = 10 * 1024**4,
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = DEFAULT_REPLICATION,
        checksums: Optional["BlockChecksums"] = None,
        read_rotation_seed: int = 0,
    ):
        if node_count < 1:
            raise StorageError("node_count must be >= 1")
        if replication < 1:
            raise StorageError("replication must be >= 1")
        if replication > node_count:
            raise StorageError(
                f"replication {replication} exceeds node count {node_count}"
            )
        self.block_size = block_size
        self.replication = replication
        self.nodes = [DataNode(i, node_capacity_bytes) for i in range(node_count)]
        self.checksums = checksums
        if checksums is not None:
            checksums.attach(self)
        self._next_block_id = 0
        self._next_node = 0
        # Fallback reads rotate from this seeded counter so post-failure
        # traffic spreads over survivors instead of hammering the first.
        self._read_rotation = read_rotation_seed
        # Blocks the last repair sweep could not place anywhere (reported,
        # not raised: one stuck block must not abort the whole sweep).
        self.unplaceable_blocks: List[int] = []
        # block_id -> (size, [node ids])
        self._blocks: Dict[int, Tuple[int, List[int]]] = {}

    def allocate_file(self, data: Union[bytes, int]) -> List[int]:
        """Write a file's bytes as replicated blocks; returns block ids.

        *data* may be a size alone, which writes that many zero bytes.
        Every replica of a block holds one zero-copy slice of *data*, and a
        one-block file's replicas hold *data* itself.
        """
        if isinstance(data, int):
            data = bytes(max(data, 0))
        if not data:
            raise StorageError("file size must be positive")
        if len(data) <= self.block_size:
            return [self._allocate_block(data)]
        view = memoryview(data)
        block_ids: List[int] = []
        try:
            for start in range(0, len(data), self.block_size):
                block_ids.append(
                    self._allocate_block(view[start:start + self.block_size])
                )
        except StorageError:
            self.free_blocks(block_ids)  # a failed write holds no blocks
            raise
        return block_ids

    def _allocate_block(self, data: bytes) -> int:
        block_id = self._next_block_id
        self._next_block_id += 1
        placed = self._place_replicas(block_id, data, 0, self.replication,
                                      exclude=set())
        self._blocks[block_id] = (len(data), placed)
        if self.checksums is not None:
            self.checksums.on_write(block_id, data)
        return block_id

    def _place_replicas(
        self, block_id: int, data: bytes, stamp: int, count: int,
        exclude: "set[int]",
    ) -> List[int]:
        """Round-robin placement of *count* replicas on live, fitting nodes."""
        size = len(data)
        placed: List[int] = []
        attempts = 0
        while len(placed) < count:
            if attempts >= len(self.nodes):
                for node_id in placed:
                    self.nodes[node_id].drop(block_id)
                raise StorageError(
                    f"cannot place block of {size} bytes with replication "
                    f"{count}: insufficient live capacity"
                )
            node = self.nodes[self._next_node]
            self._next_node = (self._next_node + 1) % len(self.nodes)
            attempts += 1
            if (
                not node.alive
                or node.node_id in placed
                or node.node_id in exclude
                or node.free_bytes < size
            ):
                continue
            node.store(block_id, data, stamp)
            placed.append(node.node_id)
        return placed

    def free_blocks(self, block_ids: List[int]) -> None:
        for block_id in block_ids:
            entry = self._blocks.pop(block_id, None)
            if entry is None:
                continue
            _, node_ids = entry
            for node_id in node_ids:
                self.nodes[node_id].drop(block_id)
            if self.checksums is not None:
                self.checksums.on_free(block_id)

    def block_locations(self, block_id: int) -> List[int]:
        """Datanode ids holding replicas of a block."""
        entry = self._blocks.get(block_id)
        if entry is None:
            raise StorageError(f"unknown block {block_id}")
        return list(entry[1])

    def update_block(self, block_id: int) -> int:
        """Rewrite a block in place: every live replica's generation stamp
        takes the new generation. Returns the new generation (0 with no
        checksum ledger — generations only exist to be checked).

        This is the write a :class:`~repro.faults.StaleReplica` fault makes
        one replica silently miss *afterwards*.
        """
        entry = self._blocks.get(block_id)
        if entry is None:
            raise StorageError(f"unknown block {block_id}")
        if self.checksums is None:
            return 0
        generation = self.checksums.on_update(block_id)
        for node_id in entry[1]:
            self.nodes[node_id].stamps[block_id] = generation
        return generation

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    def block_table(self) -> Dict[int, Tuple[int, List[int]]]:
        """Copy of the block map ``{block_id: (size, [owner ids])}``.

        An offline inspection surface for fsck and the scrubber."""
        return {
            block_id: (size, list(owners))
            for block_id, (size, owners) in self._blocks.items()
        }

    def total_stored_bytes(self) -> int:
        """Bytes on disk including replication overhead."""
        return sum(node.used_bytes for node in self.nodes)

    def balance_ratio(self) -> float:
        """max/mean node utilisation (1.0 = perfectly balanced)."""
        used = [node.used_bytes for node in self.nodes if node.alive]
        if not used:
            raise StorageError("no live datanodes")
        mean = sum(used) / len(used)
        if mean == 0:
            return 1.0
        return max(used) / mean

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def read_block(self, block_id: int, preferred: Optional[int] = None) -> int:
        """Pick the datanode that serves a read of *block_id*.

        Reads prefer ``preferred`` when it holds a live (and, with
        verification on, intact) replica; otherwise they rotate
        deterministically over the surviving replicas, so post-failure
        traffic spreads instead of hot-spotting the lowest-id node. With a
        verifying checksum ledger, corrupt replicas are detected and
        skipped; :class:`~repro.errors.BlockCorruption` means nothing
        intact remains, plain :class:`~repro.errors.StorageError` that
        every replica is gone.
        """
        entry = self._blocks.get(block_id)
        if entry is None:
            raise StorageError(f"unknown block {block_id}")
        survivors = [o for o in entry[1] if self.nodes[o].alive]
        if not survivors:
            raise StorageError(f"block {block_id} lost: no live replica")
        verifying = self.checksums is not None and self.checksums.verify
        candidates = [preferred] if preferred in survivors else []
        if verifying or not candidates:
            # Seeded rotation over survivors: deterministic, but not always
            # survivors[0]. Verifying, it lines up the preferred replica's
            # fallbacks too, in case that one is corrupt.
            start = self._read_rotation % len(survivors)
            self._read_rotation += 1
            candidates += [o for o in survivors[start:] + survivors[:start]
                           if o != preferred]
        if not verifying:
            served = candidates[0]
            if (
                self.checksums is not None
                and not self.checksums.replica_intact(block_id, served)
            ):
                # Verification off: the corrupt bytes go to the client,
                # and only the ledger knows.
                self.checksums.note_served(block_id, served)
            return served
        for candidate in candidates:
            if self.checksums.replica_intact(block_id, candidate):
                return candidate
            self.checksums.note_detected(block_id, candidate)
        raise BlockCorruption(
            f"block {block_id}: all {len(survivors)} live replicas failed "
            "checksum verification",
            block_id=block_id,
        )

    def read_file(self, block_ids: Sequence[int]) -> bytes:
        """A block file's bytes, each block from the replica
        :meth:`read_block` picks (so fallback and verification apply).

        A one-block file returns that replica's object itself: the payload
        written, unless a fault gave the replica its own copy.
        """
        if len(block_ids) == 1:  # the common case, on the chunk read path
            block_id = block_ids[0]
            return self.nodes[self.read_block(block_id)].data[block_id]
        return b"".join([self.nodes[self.read_block(block_id)].data[block_id]
                         for block_id in block_ids])

    def inject_failures(self, injector) -> int:
        """Kill the datanodes a :class:`~repro.faults.FaultInjector` names.

        Returns the number of nodes that actually died (already-dead nodes
        are skipped so a plan can be applied idempotently).
        """
        crashed = 0
        for node_id in injector.datanode_crashes():
            if 0 <= node_id < len(self.nodes) and self.nodes[node_id].alive:
                self.fail_node(node_id)
                crashed += 1
        return crashed

    def inject_silent_faults(self, injector: "FaultInjector") -> int:
        """Rot the replicas the plan's BitFlip/StaleReplica entries name.

        Needs a checksum ledger — without one nothing could tell a rotten
        replica from a sound one, and this is a no-op returning 0.
        """
        if self.checksums is None:
            return 0
        return self.checksums.apply_silent_faults(injector)

    def heal(self) -> Tuple[int, List[int]]:
        """Detect under-replication and repair what has a surviving copy.

        Returns ``(replicas_created, lost_block_ids)`` — the recovery action
        a namenode takes after datanode failures. Blocks the sweep could not
        place are reported in :attr:`unplaceable_blocks`, not raised.
        """
        return self.re_replicate(), self.lost_blocks()

    def fail_node(self, node_id: int) -> int:
        """Mark a datanode dead; its replicas vanish. Returns the number of
        blocks that became under-replicated."""
        if not 0 <= node_id < len(self.nodes):
            raise StorageError(f"unknown datanode {node_id}")
        node = self.nodes[node_id]
        if not node.alive:
            raise StorageError(f"datanode {node_id} already failed")
        node.alive = False
        affected = 0
        for block_id in list(node.blocks):
            size, owners = self._blocks[block_id]
            owners = [o for o in owners if o != node_id]
            self._blocks[block_id] = (size, owners)
            affected += 1
        node.blocks.clear()
        node.data.clear()
        node.stamps.clear()
        node.used_bytes = 0
        return affected

    def under_replicated_blocks(self) -> List[int]:
        """Blocks currently below the replication target."""
        return [
            block_id
            for block_id, (_, owners) in self._blocks.items()
            if len(owners) < self.replication
        ]

    def lost_blocks(self) -> List[int]:
        """Blocks with zero live replicas — unrecoverable data loss."""
        return [
            block_id for block_id, (_, owners) in self._blocks.items() if not owners
        ]

    def re_replicate(self) -> int:
        """Restore replication for under-replicated (non-lost) blocks.

        Returns the number of replicas created, each copied from an intact
        survivor if a ledger can tell. Lost blocks (no surviving
        replica) are skipped — there is nothing to copy from. Blocks that
        cannot be placed (insufficient live capacity) are *also* skipped
        and reported in :attr:`unplaceable_blocks`: one stuck block must
        not leave every later block under-replicated.
        """
        created = 0
        self.unplaceable_blocks = []
        for block_id in self.under_replicated_blocks():
            size, owners = self._blocks[block_id]
            if not owners:
                continue
            missing = self.replication - len(owners)
            source = owners[0]
            if self.checksums is not None:
                source = next((o for o in owners
                               if self.checksums.replica_intact(block_id, o)),
                              source)
            source_node = self.nodes[source]
            try:
                new_owners = self._place_replicas(
                    block_id, source_node.data[block_id],
                    source_node.stamps[block_id], missing, exclude=set(owners),
                )
            except StorageError:
                self.unplaceable_blocks.append(block_id)
                continue
            self._blocks[block_id] = (size, owners + new_owners)
            created += len(new_owners)
        return created
