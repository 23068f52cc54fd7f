"""The HopsFS filesystem API over the sharded metadata store.

Inodes are partitioned by **parent inode id** (the HopsFS design): a
directory listing, a create, and a stat each touch only the shard owning the
parent partition, so the workload spreads across shards and throughput scales
with the shard count. The store indexes each shard by partition, so
``listdir`` is a partition-pruned index scan — it reads the directory's own
children and nothing else on the shard. ``rename`` across directories is the multi-shard
transaction that pays the 2PC surcharge.

Small files (below ``small_file_threshold``) are stored *inline in the
metadata store* ("Size Matters" [17]): reading them is one metadata round
trip instead of metadata + datanode I/O. Experiment E1's ablation toggles the
threshold.

Deadline propagation (experiment E18): every filesystem operation accepts an
optional :class:`~repro.resilience.Deadline` and hands it to each metadata
transaction it issues, so one request's path resolution + record ops all
draw from a single budget — a slow or flapping shard fails the request with
:class:`~repro.errors.TimeoutExceeded` instead of silently stretching it.

Directory-hint caching (experiment E19): path resolution runs through a
:class:`~repro.cache.DirHintCache` — a bounded LRU whose invalidation is
*prefix-scoped*: deleting or renaming a directory evicts exactly its
subtree's hints instead of flushing the table, so hot ancestors stay cached
and keep costing zero store round trips (and zero deadline charge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.cache.hopsfs import DirHintCache, NegativeEntry
from repro.errors import StorageError
from repro.hopsfs.blocks import BlockManager
from repro.hopsfs.kvstore import ShardedKVStore
from repro.obs import Observability, resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.fsck import FsckReport
    from repro.durability.wal import DurabilityLayer, RecoveryReport
    from repro.resilience.deadline import Deadline

ROOT_ID = 0

DEFAULT_SMALL_FILE_THRESHOLD = 64 * 1024  # 64 KB, per the Size Matters paper


@dataclass(frozen=True)
class FileStat:
    """Metadata returned by :meth:`HopsFS.stat`."""

    path: str
    inode_id: int
    is_dir: bool
    size_bytes: int
    inline: bool
    block_ids: Tuple[int, ...]


class HopsFS:
    """A simulated distributed filesystem with database-backed metadata."""

    def __init__(
        self,
        store: Optional[ShardedKVStore] = None,
        blocks: Optional[BlockManager] = None,
        small_file_threshold: int = DEFAULT_SMALL_FILE_THRESHOLD,
        obs: Optional[Observability] = None,
        dir_cache: Optional[DirHintCache] = None,
        durability: Optional["DurabilityLayer"] = None,
    ):
        self.obs = resolve(obs)
        if store is None:
            store = ShardedKVStore(obs=obs, durability=durability)
        elif durability is not None:
            raise StorageError(
                "pass durability either to HopsFS or to the store it wraps, "
                "not both"
            )
        self.store = store
        self.blocks = blocks if blocks is not None else BlockManager()
        self.small_file_threshold = small_file_threshold
        self._next_inode = ROOT_ID + 1
        #: Operations that can take a path away: ``delete``, ``rename``,
        #: ``crash`` and ``recover``. A :class:`FileStat` held since this
        #: last moved still names the same file (``create`` refuses
        #: existing paths, and nothing else rewrites a record).
        self.path_losses = 0
        # Inode-hint cache (the HopsFS design): directory-path resolution is
        # cached so hot ancestors (/, /data, ...) don't serialise every
        # operation through the shards that own them. A bounded LRU with
        # prefix-scoped eviction — deleting or renaming a directory evicts
        # exactly its subtree's hints, not the whole table (E19). Pass a
        # ``DirHintCache(negative=True)`` to also remember failed lookups.
        self._dir_cache = (
            dir_cache if dir_cache is not None else DirHintCache(obs=obs)
        )
        # Root directory exists implicitly; register it so scans work.
        self.store.put(ROOT_ID, "__self__", self._dir_record(ROOT_ID))

    @property
    def dir_cache_stats(self) -> Dict[str, int]:
        """Hit/miss/eviction accounting of the directory-hint cache."""
        return self._dir_cache.stats

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    @staticmethod
    def _dir_record(inode_id: int) -> Dict:
        return {"inode": inode_id, "is_dir": True, "size": 0}

    @staticmethod
    def _file_record(
        inode_id: int, size: int, inline_data: Optional[bytes], block_ids: List[int]
    ) -> Dict:
        return {
            "inode": inode_id,
            "is_dir": False,
            "size": size,
            "inline": inline_data,
            "blocks": block_ids,
        }

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------

    @staticmethod
    def _split(path: str) -> List[str]:
        if not path.startswith("/"):
            raise StorageError("path must be absolute", path=path)
        parts = [p for p in path.split("/") if p]
        return parts

    def _resolve_dir(
        self,
        parts: List[str],
        path: str,
        deadline: Optional["Deadline"] = None,
    ) -> int:
        """Resolve a component list to a directory inode id (hint cached).

        A positive hit costs zero store round trips (and charges nothing to
        *deadline*); with negative caching on, a remembered failure replays
        its error equally for free.
        """
        key = tuple(parts)
        cached = self._dir_cache.get(key)
        if isinstance(cached, NegativeEntry):
            raise StorageError(cached.message, path=path)
        if cached is not None:
            return cached
        current = ROOT_ID
        for part in parts:
            record = self.store.get(current, part, deadline=deadline)
            if record is None:
                self._dir_cache.put_negative(key, "no such directory")
                raise StorageError("no such directory", path=path)
            if not record["is_dir"]:
                self._dir_cache.put_negative(key, "not a directory")
                raise StorageError("not a directory", path=path)
            current = record["inode"]
        self._dir_cache.put(key, current)
        return current

    def _resolve_parent(
        self, path: str, deadline: Optional["Deadline"] = None
    ) -> Tuple[int, str]:
        parts = self._split(path)
        if not parts:
            raise StorageError("path refers to root", path=path)
        parent = self._resolve_dir(parts[:-1], path, deadline)
        return parent, parts[-1]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def mkdir(self, path: str, deadline: Optional["Deadline"] = None) -> int:
        """Create a directory (parents must exist). Returns the inode id."""
        with self.obs.tracer.span("hopsfs.fs", op="mkdir"):
            parent, name = self._resolve_parent(path, deadline)
            if self.store.get(parent, name, deadline=deadline) is not None:
                raise StorageError("already exists", path=path)
            inode = self._next_inode
            self._next_inode += 1
            self.store.put(parent, name, self._dir_record(inode),
                           deadline=deadline)
            if self._dir_cache.negative:
                # The path (and anything probed beneath it) just came into
                # existence; remembered failures there are now stale.
                self._dir_cache.evict_prefix(tuple(self._split(path)))
            return inode

    def makedirs(self, path: str, deadline: Optional["Deadline"] = None) -> None:
        """Create a directory and any missing ancestors."""
        parts = self._split(path)
        current = "/"
        for part in parts:
            current = current.rstrip("/") + "/" + part
            try:
                self.mkdir(current, deadline=deadline)
            except StorageError as exc:
                if "already exists" not in str(exc):
                    raise

    def create(
        self, path: str, data: bytes, deadline: Optional["Deadline"] = None
    ) -> FileStat:
        """Create a file with contents *data*."""
        with self.obs.tracer.span("hopsfs.fs", op="create"):
            parent, name = self._resolve_parent(path, deadline)
            if self.store.get(parent, name, deadline=deadline) is not None:
                raise StorageError("already exists", path=path)
            inode = self._next_inode
            self._next_inode += 1
            size = len(data)
            if size <= self.small_file_threshold:
                record = self._file_record(inode, size, data, [])
                self.obs.metrics.counter("hopsfs.files", layout="inline").inc()
            else:
                # The datanodes hold the bytes; the record, the block ids.
                block_ids = self.blocks.allocate_file(data) if size else []
                record = self._file_record(inode, size, None, block_ids)
                self.obs.metrics.counter("hopsfs.files", layout="blocks").inc()
            try:
                self.store.put(parent, name, record, deadline=deadline)
            except Exception:
                # No record claims the blocks: give them back.
                self.blocks.free_blocks(record["blocks"])
                raise
            if self._dir_cache.negative:
                # A "no such directory" hint for this path would now be the
                # wrong failure ("not a directory"); drop it.
                self._dir_cache.evict_prefix(tuple(self._split(path)))
            return self._stat_from_record(path, record)

    def read(
        self, path: str, deadline: Optional["Deadline"] = None
    ) -> bytes:
        """Read a file's bytes: an inline file's from its metadata record, a
        block file's from the datanodes, each block through
        :meth:`~repro.hopsfs.blocks.BlockManager.read_block` (replica
        fallback and checksum verification apply)."""
        with self.obs.tracer.span("hopsfs.fs", op="read"):
            parent, name = self._resolve_parent(path, deadline)
            record = self.store.get(parent, name, deadline=deadline)
            if record is None:
                raise StorageError("no such file", path=path)
            if record["is_dir"]:
                raise StorageError("is a directory", path=path)
            if record["inline"] is not None:
                return record["inline"]
            return self.blocks.read_file(record["blocks"])

    def stat(
        self, path: str, deadline: Optional["Deadline"] = None
    ) -> FileStat:
        with self.obs.tracer.span("hopsfs.fs", op="stat"):
            parent, name = self._resolve_parent(path, deadline)
            record = self.store.get(parent, name, deadline=deadline)
            if record is None:
                raise StorageError("no such file or directory", path=path)
            return self._stat_from_record(path, record)

    def _stat_from_record(self, path: str, record: Dict) -> FileStat:
        if record["is_dir"]:
            return FileStat(path, record["inode"], True, 0, False, ())
        return FileStat(
            path=path,
            inode_id=record["inode"],
            is_dir=False,
            size_bytes=record["size"],
            inline=record["inline"] is not None,
            block_ids=tuple(record.get("blocks", ())),
        )

    def exists(self, path: str, deadline: Optional["Deadline"] = None) -> bool:
        try:
            self.stat(path, deadline=deadline)
            return True
        except StorageError:
            return False

    def listdir(
        self, path: str, deadline: Optional["Deadline"] = None
    ) -> List[str]:
        """Names in a directory — an index scan of its one partition."""
        with self.obs.tracer.span("hopsfs.fs", op="listdir"):
            parts = self._split(path)
            inode = self._resolve_dir(parts, path, deadline)
            return sorted(
                name
                for name, _ in self.store.scan(inode, deadline=deadline)
                if name != "__self__"
            )

    def delete(self, path: str, deadline: Optional["Deadline"] = None) -> None:
        with self.obs.tracer.span("hopsfs.fs", op="delete"):
            parent, name = self._resolve_parent(path, deadline)
            record = self.store.get(parent, name, deadline=deadline)
            if record is None:
                raise StorageError("no such file or directory", path=path)
            if record["is_dir"] and any(
                name != "__self__"
                for name, _ in self.store.scan(record["inode"],
                                               deadline=deadline)
            ):
                raise StorageError("directory not empty", path=path)
            if record["is_dir"]:
                # Scoped invalidation (the E19 bugfix): only hints at or
                # below the deleted directory can be stale — hot ancestors
                # (/, /data, ...) stay cached across a sibling delete.
                self._dir_cache.evict_prefix(tuple(self._split(path)))
            self.path_losses += 1
            self.store.delete(parent, name, deadline=deadline)
            # Only a record that is gone lets its blocks go: a failed delete
            # leaves the file whole and readable.
            if not record["is_dir"] and record.get("blocks"):
                self.blocks.free_blocks(record["blocks"])

    def rename(
        self, src: str, dst: str, deadline: Optional["Deadline"] = None
    ) -> None:
        """Move a file/directory. Cross-directory renames span shards (2PC)."""
        with self.obs.tracer.span("hopsfs.fs", op="rename"):
            src_parent, src_name = self._resolve_parent(src, deadline)
            dst_parent, dst_name = self._resolve_parent(dst, deadline)
            record = self.store.get(src_parent, src_name, deadline=deadline)
            if record is None:
                raise StorageError("no such file or directory", path=src)
            if self.store.get(dst_parent, dst_name, deadline=deadline) is not None:
                raise StorageError("already exists", path=dst)
            src_parts, dst_parts = self._split(src), self._split(dst)
            if record["is_dir"] and dst_parts[:len(src_parts)] == src_parts:
                # The subtree would hang off itself: unreachable from the
                # root, every file in it lost. Nothing has changed yet.
                raise StorageError(
                    "cannot move a directory into itself", path=dst
                )
            if record["is_dir"]:
                # The moved subtree's hints die with its old name; nothing
                # outside the source prefix can have gone stale.
                self._dir_cache.evict_prefix(tuple(src_parts))
            if self._dir_cache.negative:
                # Remembered failures under the destination just became
                # reachable paths.
                self._dir_cache.evict_prefix(tuple(dst_parts))
            self.path_losses += 1
            self.store.transact(
                writes=[(dst_parent, dst_name, record)],
                deletes=[(src_parent, src_name)],
                deadline=deadline,
            )

    # ------------------------------------------------------------------
    # Durability and integrity (experiment E20)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power loss on the metadata tier; needs a durability layer."""
        self.store.crash()
        self.path_losses += 1
        # Volatile caches die with the process.
        self._dir_cache.clear()

    def recover(self) -> "RecoveryReport":
        """Rebuild metadata from snapshot + WAL replay after :meth:`crash`.

        Also re-derives the inode allocator from the recovered records, so
        post-recovery creates cannot collide with surviving inodes.
        """
        report = self.store.recover()
        self.path_losses += 1
        highest = ROOT_ID
        for shard in range(self.store.shard_count):
            for _, _, record in self.store.shard_items(shard):
                if isinstance(record, dict) and "inode" in record:
                    highest = max(highest, record["inode"])
        self._next_inode = highest + 1
        return report

    def fsck(self) -> "FsckReport":
        """Cross-layer integrity check (metadata ↔ blocks ↔ datanodes)."""
        from repro.durability.fsck import fsck_filesystem

        return fsck_filesystem(self)
