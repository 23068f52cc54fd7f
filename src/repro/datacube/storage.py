"""Chunk persistence through HopsFS.

Chunks are ordinary HopsFS files, so everything the storage stack already
guarantees applies unchanged: small chunks are inlined in the metadata
store (WAL-durable with an E20 :class:`~repro.durability.DurabilityLayer`),
large chunks get replicated blocks on the datanodes, whose reads go
through :meth:`~repro.hopsfs.blocks.BlockManager.read_block` — E17 replica
fallback after datanode failures and E20 checksum verification/scrub both
fire on cube reads without the cube knowing. The store keeps no bytes of
its own, so any store over the same filesystem reads what another wrote,
and deleting a chunk frees its bytes.

``create`` refuses existing paths, which is the storage-level enforcement
of the cube's append-only contract: a second write of the same chunk path
is a :class:`~repro.errors.DatacubeError`, not a silent overwrite. The
per-path write counter exists so tests can pin that invariant.

A sealed object is never rewritten, so its file metadata never changes:
the store keeps the :class:`~repro.hopsfs.filesystem.FileStat` of every
path it writes (``create``'s return value) or stats, and ``get`` resolves a
path on the namenode only once. Only its bytes are read again — every block
of every read still goes through the block manager
(:meth:`~repro.hopsfs.blocks.BlockManager.read_file`), and inline objects
still come from the metadata store. The exactness rule: a kept stat holds
only while the namespace has lost no path. ``HopsFS.path_losses`` counts
the operations that can take one away (``delete``, ``rename``, ``crash``,
``recover``); when it has moved, the store drops every kept stat, so a
deleted or moved chunk fails its read exactly as an unkept one does.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import DatacubeError, StorageError
from repro.hopsfs.filesystem import FileStat, HopsFS
from repro.obs import Observability, resolve


class ChunkStore:
    """Byte-addressed chunk I/O on a :class:`~repro.hopsfs.HopsFS`."""

    def __init__(self, fs: Optional[HopsFS] = None, obs: Optional[Observability] = None):
        self.fs = fs if fs is not None else HopsFS(obs=obs)
        self.obs = resolve(obs)
        #: path -> times written through this store (the append-only pin:
        #: every value must stay exactly 1).
        self.writes: Dict[str, int] = {}
        # path -> FileStat, valid while fs.path_losses equals _losses_seen.
        self._stats: Dict[str, FileStat] = {}
        self._losses_seen = self.fs.path_losses

    def makedirs(self, path: str) -> None:
        self.fs.makedirs(path)

    def put(self, path: str, payload: bytes) -> None:
        """Write a new immutable object; rewriting a path is an error."""
        try:
            stat = self.fs.create(path, payload)
        except StorageError as exc:
            if "already exists" in str(exc):
                raise DatacubeError(
                    f"chunk store is append-only: {path} already sealed"
                ) from exc
            raise
        self._kept_stats()[path] = stat
        self.writes[path] = self.writes.get(path, 0) + 1
        self.obs.metrics.counter("datacube.store_puts").inc()
        self.obs.metrics.counter("datacube.bytes_written").inc(len(payload))

    def _kept_stats(self) -> Dict[str, FileStat]:
        """The kept stats, all dropped first if a path was lost since."""
        if self._losses_seen != self.fs.path_losses:
            self._stats.clear()
            self._losses_seen = self.fs.path_losses
        return self._stats

    def get(self, path: str) -> bytes:
        """Read an object back; block-layout reads verify every block.

        The path's stat is taken from ``put`` or the first ``get`` and kept
        (see the module docstring for when it is dropped); the bytes are
        read every time. So a block-layout object whose stat is kept reads
        without the metadata store — a shard outage no longer fails it —
        while an inline object still reads from it.
        """
        stats = self._kept_stats()
        stat = stats.get(path)
        if stat is None:
            stat = stats[path] = self.fs.stat(path)
        if stat.inline:
            payload = self.fs.read(path)
        else:  # a corrupt or lost block raises before any byte is served
            payload = self.fs.blocks.read_file(stat.block_ids)
        self.obs.metrics.counter("datacube.store_gets").inc()
        self.obs.metrics.counter("datacube.bytes_read").inc(len(payload))
        return payload

    def exists(self, path: str) -> bool:
        return self.fs.exists(path)

    def listdir(self, path: str):
        return self.fs.listdir(path)
